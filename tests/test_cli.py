import ast
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from rsl import b_prime, bars, cache, cli, flag_h, full_table, oracles
from rsl.cli import main
from rsl.shapes import Shape, full_shape


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_b_value(capsys):
    code, doc = run_json(capsys, "b", "--n", "4", "--ranks", "2")
    assert code == 0
    assert doc["results"]["b"] == 1


def test_bprime_value(capsys):
    code, doc = run_json(capsys, "bprime", "--n", "6", "--ranks", "1,2")
    assert code == 0
    assert doc["results"]["bprime"] == 1


def test_construct_word_render(capsys):
    code, doc = run_json(
        capsys, "construct", "--word", "DDDDDDDA", "--n", "10", "--render"
    )
    assert code == 0
    assert doc["results"]["diagram"] == "o|8o|1o|7o|2o|6o|3o|5o|4o|9o"


def test_construct_ranks(capsys):
    code, doc = run_json(capsys, "construct", "--ranks", "1,3", "--n", "6")
    assert code == 0
    assert doc["results"]["descent_coranks"] == [2, 4]


def test_table_schema(capsys):
    code, doc = run_json(capsys, "table", "--n", "4")
    assert code == 0
    results = doc["results"]
    assert results["n"] == 4 and results["lambda"] == [4]
    entries = {tuple(e["S"]): (e["f"], e["h"]) for e in results["entries"]}
    assert entries[(2,)] == (2, 1)
    assert entries[()] == (1, 1)


def test_table_csv(capsys):
    code, out = run_cli(capsys, "--csv", "table", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "S,f,h"
    assert len(out.splitlines()) == 5


def test_partition_verify(capsys):
    code, doc = run_json(capsys, "partition-verify", "--n", "5")
    assert code == 0
    assert doc["results"]["status"] == "verified"
    code, doc = run_json(
        capsys, "partition-verify", "--n", "5", "--lambda", "4,1",
        "--order", "distinguished", "--facets",
    )
    assert code == 0
    assert doc["results"]["facets"]


def test_partition_verify_builds_facet_records_only_when_asked(capsys, monkeypatch):
    def refuse(facet):
        raise AssertionError("per-facet report built without --facets")

    monkeypatch.setattr(bars, "facet_block_conditions", refuse)
    code, doc = run_json(capsys, "partition-verify", "--n", "6")
    assert code == 0
    assert doc["results"]["facets"] is None


@pytest.mark.parametrize(
    "argv,code,count,digest",
    [
        (("--n", "8"), 1, 272, "61e3200ca7d1cd23cb8986ef6e7a2dbe8a7c58a31a4990f8000513563c136241"),
        (
            ("--n", "8", "--lambda", "7,1", "--order", "distinguished"),
            0,
            1385,
            "2e8ec9f48d8daba98441db7052636b338e056be01d5ddd9fb70c4e4e91ea4746",
        ),
    ],
    ids=["(8)", "(7,1)-distinguished"],
)
def test_partition_verify_facet_records_are_pinned(capsys, argv, code, count, digest):
    # sha256 of the per-facet records, dumped with sorted keys: every
    # facet's chain, positions, G_i, minimal support, descent word and block
    # conditions.  (8) has E_7 = 272 facets and fails (exit 1); (7,1) has
    # 1,385 and verifies
    got, doc = run_json(capsys, "partition-verify", *argv, "--facets")
    records = doc["results"]["facets"]
    assert (got, len(records)) == (code, count)
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest


def test_partition_verify_refuses_shapes_over_the_facet_bound(capsys, monkeypatch):
    # (12) has E_11 = 353,792 facets and (1^9) has 9! 8! / 2^8, both over
    # PARTITION_MAX_FACETS; they are refused before the walk.  (n) is
    # counted first: its facets bound every shape of n from below, so a
    # large n never counts its shape.  (11) has 50,521 facets
    def no_walk(*args):
        raise AssertionError("walked a refused shape")

    monkeypatch.setattr(bars, "enumerate_insertion_facets", no_walk)
    for argv in (("--n", "12"), ("--n", "9", "--lambda", ",".join(["1"] * 9))):
        code, doc = run_json(capsys, "partition-verify", *argv)
        assert code == 2 and "facets, too many to walk" in doc["error"], argv
    counted = []
    plain = cli.support_count
    monkeypatch.setattr(cli, "support_count", lambda shape, *a: counted.append(shape) or plain(shape, *a))
    assert cli._partition_refusal(20, Shape((1,) * 20))
    assert counted == [full_shape(20)]
    assert cli._partition_refusal(11, full_shape(11)) is None
    assert cli._partition_refusal(9, Shape((8, 1))) is None


def test_report_is_one_canonical_write(monkeypatch):
    # the report is json.dumps(indent=2, sort_keys=True) plus a newline,
    # written in one batch, not chunk by chunk
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["table", "--n", "9"]) == 0
    out = sys.stdout.getvalue()
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    assert len(writes) <= 2


def test_vanish_consistency(capsys):
    code, doc = run_json(capsys, "vanish", "--n", "6")
    assert code == 0
    assert doc["results"]["consistent"]


def test_stability(capsys):
    code, doc = run_json(capsys, "stability", "--ranks", "2", "--n", "5", "--m", "6")
    assert code == 0
    assert doc["results"]["equal"]


def test_usage_errors(capsys):
    code, doc = run_json(capsys, "b", "--n", "4", "--ranks", "7")
    assert code == 2
    code, doc = run_json(capsys, "table", "--n", "5", "--lambda", "4")
    assert code == 2 and "does not sum to n=5" in doc["error"]
    code, doc = run_json(capsys, "construct", "--word", "AD", "--n", "4")
    assert code == 2
    code, doc = run_json(capsys, "stability", "--ranks", "3", "--n", "6", "--m", "7")
    assert code == 2
    for argv, message in (
        (("construct", "--word", "DDA", "--n", "7"), "needs n=5"),
        (("construct", "--word", "XYZ"), "must be over {A, D}"),
        (("construct", "--word", "D" * 198 + "A"), "up to n=100, got n=201"),
        (("stability", "--ranks", "3", "--n", "9", "--m", "9"), "compares two sizes"),
        (("table", "--n", "1"), "need n >= 2"),
        (("table", "--n", "0"), "need n >= 2"),
        (("stability", "--ranks", "1", "--n", "5", "--m", "1"), "need m >= 2, got m=1"),
        (("stability", "--ranks", "1", "--n", "5", "--m", "-3"), "need m >= 2, got m=-3"),
        (("partition-verify", "--n", "1"), "need n >= 2"),
        (("verify-all", "--max-n", "1"), "at least 5"),
        (("verify-all", "--max-n", "4"), "at least 5"),
        (("b", "--n", "4", "--ranks", "1,x"), "bad rank list"),
        (("construct", "--ranks", "1,3"), "--ranks needs --n"),
        (("construct",), "needs --word or --ranks"),
        (("partition-verify", "--n", "6", "--order", "distinguished"), "last part 1"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and message in doc["error"], (argv, doc)


def test_verify_all_quick(capsys):
    code, doc = run_json(capsys, "verify-all", "--max-n", "5", "--quiet")
    assert code == 0
    assert doc["results"]["passed"]
    assert len(doc["results"]["criteria"]) == 15


def _run_fresh(code, *flags):
    """The stdout of ``code`` run in a fresh interpreter, started with the
    interpreter ``flags``, that imports rsl from src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_the_battery_out():
    """Every CLI request is a fresh process, so ``import rsl.cli`` loads only
    what every request may run.  The facet walk, the facet builders, the
    vanishing predicates, the acceptance battery and its oracles load in the
    subcommands that use them, the disk cache in table and vanish given a
    cache dir, and ``hashlib`` at the cache's first digest.
    Records are slotted classes on ``shapes.Record``, so neither
    ``dataclasses`` nor the ``inspect`` it imports loads."""
    out = _run_fresh(
        "import sys, rsl.cli; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rsl')));"
        " print(*(m in sys.modules for m in ('hashlib', 'dataclasses', 'inspect')))"
    )
    modules, loaded = out.splitlines()
    assert modules.split() == sorted(
        ["rsl", "rsl.shapes", "rsl.kernel", "rsl.core", "rsl.orders",
         "rsl.flags", "rsl.partitioning", "rsl.cli"]
    )
    assert loaded.split() == ["False", "False", "False"]


def test_no_rsl_module_loads_dataclasses():
    """Importing every rsl module, the deferred ones too, loads no
    ``dataclasses``."""
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rsl")
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py") and name != "__init__.py")
    assert {"bars", "construct", "vanishing", "acceptance", "oracles"} <= set(modules)
    code = f"""
import importlib, sys
for name in {modules!r}:
    importlib.import_module('rsl.' + name)
print('dataclasses' in sys.modules)
"""
    assert _run_fresh(code).strip() == "False"


def test_cli_import_loads_no_typing():
    """rsl's annotations name ``collections.abc`` types and ``X | None``, so
    ``import rsl.cli`` does not load ``typing``; run without the site
    hooks, which may import it themselves."""
    assert _run_fresh("import sys, rsl.cli; print('typing' in sys.modules)", "-S").strip() == "False"


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["table", "--n", "5"], False),
        (["b", "--n", "6", "--ranks", "2"], False),
        (["bprime", "--n", "6", "--ranks", "2"], False),
        (["stability", "--ranks", "2", "--n", "5", "--m", "6"], False),
        (["vanish", "--n", "6"], False),
        (["construct", "--word", "DDA", "--n", "5"], True),
        (["partition-verify", "--n", "5"], True),
    ],
)
def test_only_facet_requests_load_the_walk(tmp_path, argv, walks):
    """A request loads the facet walk (``rsl.bars``) only when it builds or
    orders facets, and, given a cache dir, the disk cache (``rsl.cache``)
    only for table and vanish: b, bprime and stability leave it unloaded
    though the (n) tables they could read are stored."""
    for n in (5, 6):
        cache.store_table(str(tmp_path), full_table(n, full_shape(n)))
    code = f"""
import contextlib, io, sys
from rsl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(['--cache-dir', {str(tmp_path)!r}, *{argv!r}])
print(code, 'rsl.bars' in sys.modules, 'rsl.cache' in sys.modules)
"""
    caches = argv[0] in ("table", "vanish")
    assert _run_fresh(code).split() == ["0", str(walks), str(caches)]


def test_deferred_names_resolve_on_first_use():
    """A bare ``import rsl`` loads none of ``bars``, ``construct`` and
    ``vanishing``, yet lists their names, and each resolves to the defining
    module's object."""
    deferred = {
        "bars": ["BarInsertion", "CoverLabel", "DescentWord", "InsertionFacet", "block_conditions",
                 "cover_labels", "descent_set", "descent_word", "enumerate_insertion_facets",
                 "facet_to_insertions", "min_extension"],
        "construct": ["ConstructionError", "WordUnsupportedError", "build_bprime",
                      "build_descending_run", "build_theorem22", "build_word"],
        "vanishing": ["RankSetShape", "WitnessChain", "chain_condition_search", "classify_rank_set",
                      "delta_beta_nonvanishing", "theorem31_witness", "vanishing_predicates"],
    }
    code = f"""
import sys, rsl
deferred = {deferred!r}
assert not {{'rsl.bars', 'rsl.construct', 'rsl.vanishing'}} & set(sys.modules), 'loaded by import rsl'
listed = set(dir(rsl))
for module, names in deferred.items():
    assert {{module, *names}} <= listed, module
    for name in names:
        assert getattr(rsl, name) is getattr(sys.modules['rsl.' + module], name), name
    assert getattr(rsl, module) is sys.modules['rsl.' + module], module
star = {{}}
exec('from rsl import *', star)
for module, names in deferred.items():
    for name in [module, *names]:
        assert star[name] is getattr(rsl, name), name
try:
    rsl.no_such_name
except AttributeError:
    print('ok')
"""
    assert _run_fresh(code).strip() == "ok"


def test_table_cache_cold_vs_warm(tmp_path, capsys):
    cold_code, cold = run_json(
        capsys, "--cache-dir", str(tmp_path), "table", "--n", "7"
    )
    warm_code, warm = run_json(
        capsys, "--cache-dir", str(tmp_path), "table", "--n", "7"
    )
    assert cold_code == warm_code == 0
    assert cold["results"] == warm["results"]
    assert warm["cache_hit"] and not cold["cache_hit"]


def test_table_with_unwritable_cache_dir_is_usage_error(tmp_path, capsys):
    # a regular file cannot hold the cache: exit 2 with an error, not a traceback
    path = tmp_path / "not-a-dir"
    path.write_text("")
    code, doc = run_json(capsys, "--cache-dir", str(path), "table", "--n", "5")
    assert code == 2 and "cannot write the cache" in doc["error"]


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RSL_CACHE_DIR", str(tmp_path))
    code, doc = run_json(capsys, "table", "--n", "5")
    assert code == 0 and not doc["cache_hit"]
    code, doc = run_json(capsys, "table", "--n", "5")
    assert code == 0 and doc["cache_hit"]


def test_cache_key_separation(tmp_path):
    hook = Shape((5, 1))
    cache.store_table(str(tmp_path), full_table(6, hook))
    assert cache.load_table(str(tmp_path), 6, full_shape(6)) is None
    assert cache.load_table(str(tmp_path), 6, hook) == full_table(6, hook).entries()


def _tamper_f_value(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["payload"][0][1] += 1
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_bytes(data):
    def spoil(path):
        with open(path, "wb") as fh:
            fh.write(data)

    return spoil


def _rewrite_payload(change):
    """Change the payload and store a matching checksum, so only the check of
    the payload's form can catch it."""

    def spoil(path):
        with open(path) as fh:
            doc = json.load(fh)
        change(doc["payload"])
        doc["sha256"] = cache._digest(doc["payload"])
        with open(path, "w") as fh:
            json.dump(doc, fh)

    return spoil


def _drop_h(payload):
    del payload[0][2]


def _keep_first_row(payload):
    del payload[1:]


@pytest.mark.parametrize(
    "spoil",
    [
        _tamper_f_value,
        _write_bytes(b"[]"),
        _write_bytes(b"\xff\xfe{}"),
        _rewrite_payload(_drop_h),
        _rewrite_payload(_keep_first_row),
    ],
    ids=["tampered-payload", "not-an-object", "not-utf8", "bad-row", "missing-entries"],
)
def test_cache_corruption_detected(tmp_path, capsys, spoil):
    table = full_table(5, full_shape(5))
    spoil(cache.store_table(str(tmp_path), table))
    assert cache.load_table(str(tmp_path), 5, full_shape(5)) is None
    # the CLI treats the entry as a miss, recomputes it and stores it again
    code, doc = run_json(capsys, "--cache-dir", str(tmp_path), "table", "--n", "5")
    assert code == 0 and not doc["cache_hit"]
    assert cache.load_table(str(tmp_path), 5, full_shape(5)) == table.entries()


def test_cache_keyed_on_code(tmp_path, capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cache, "code_fingerprint", lambda: "0" * 64)
        code, doc = run_json(capsys, "--cache-dir", str(tmp_path), "table", "--n", "6")
        assert code == 0 and not doc["cache_hit"]
        assert cache.load_table(str(tmp_path), 6, full_shape(6)) is not None
    # a table stored by other code is a miss, and is recomputed and stored again
    assert cache.load_table(str(tmp_path), 6, full_shape(6)) is None
    code, doc = run_json(capsys, "--cache-dir", str(tmp_path), "table", "--n", "6")
    assert code == 0 and not doc["cache_hit"]
    code, again = run_json(capsys, "--cache-dir", str(tmp_path), "table", "--n", "6")
    assert code == 0 and again["cache_hit"] and again["results"] == doc["results"]


def _relative_imports(name):
    """The rsl modules that module ``name`` imports relatively, anywhere in
    its source, functions included."""
    with open(os.path.join(os.path.dirname(cache.__file__), name + ".py")) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import a, b
                out.update(alias.name for alias in node.names)
    return out


def test_fingerprint_covers_every_module_a_table_reads():
    """A module that ``flags`` reaches but the fingerprint skips could change
    a table while the cache still served the old one; a module it does not
    reach would throw away every stored table on an edit that cannot
    change one."""
    reached, todo = set(), ["flags"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_relative_imports(name))
    assert reached == set(cache.COMPUTING_MODULES)


QUERIES = (
    ("b", "--n", "7", "--ranks", "2,4"),
    ("bprime", "--n", "7", "--ranks", "2,3"),
    ("vanish", "--n", "7"),
)


def _query_answers(capsys, cache_dir):
    """{command: (answer, cache_hit or None)} for the three table queries."""
    answers = {}
    for argv in QUERIES:
        code, doc = run_json(capsys, "--cache-dir", cache_dir, *argv)
        assert code == 0, argv
        res = doc["results"]
        if argv[0] == "vanish":
            value = {tuple(row["S"]): row["h"] for row in res["sets"]}
        else:
            value = res[argv[0]]
        answers[argv[0]] = (value, doc.get("cache_hit"))
    return answers


def _in_process_answers():
    h_of = {s: h for s, _, h in full_table(7, full_shape(7)).entries()}
    return {"b": flag_h(7, (7,), {2, 4}), "bprime": b_prime(7, {2, 3}), "vanish": h_of}


def test_vanish_reads_stored_tables(tmp_path, capsys, monkeypatch):
    want = _in_process_answers()["vanish"]
    cache.store_table(str(tmp_path), full_table(7, full_shape(7)))

    def no_count(*args):
        raise AssertionError("a stored table was recomputed")

    monkeypatch.setattr(cli.flags, "full_table", no_count)
    got = _query_answers(capsys, str(tmp_path))["vanish"]
    assert got == (want, True)


def test_one_s_queries_never_read_stored_tables(tmp_path, capsys, monkeypatch):
    """b, bprime and stability count their answer though (7) and (6,1) are
    stored, and report no cache_hit."""
    cache.store_table(str(tmp_path), full_table(7, full_shape(7)))
    cache.store_table(str(tmp_path), full_table(7, (6, 1)))

    def no_read(*args):
        raise AssertionError("a one-S query read the cache")

    monkeypatch.setattr(cache, "load_table", no_read)
    for argv, key, want in (
        (QUERIES[0], "b", flag_h(7, (7,), {2, 4})),
        (QUERIES[1], "bprime", b_prime(7, {2, 3})),
        (("stability", "--ranks", "2", "--n", "7", "--m", "8"), "values",
         {"7": flag_h(7, (7,), {2}), "8": flag_h(8, (8,), {2})}),
    ):
        code, doc = run_json(capsys, "--cache-dir", str(tmp_path), *argv)
        assert code == 0 and doc["results"][key] == want, argv
        assert "cache_hit" not in doc, argv


def test_queries_never_write_the_cache(tmp_path, capsys):
    want = _in_process_answers()
    got = _query_answers(capsys, str(tmp_path))
    assert got == {cmd: (value, False if cmd == "vanish" else None) for cmd, value in want.items()}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("b", "--n", "7", "--ranks", "2,4"),
        ("bprime", "--n", "7", "--ranks", "2,3"),
        ("stability", "--ranks", "1,3", "--n", "7", "--m", "8"),
    ],
)
def test_query_miss_sweeps_only_the_subsets_of_its_ranks(tmp_path, capsys, monkeypatch, argv):
    want = {
        "b": flag_h(7, (7,), {2, 4}),
        "bprime": b_prime(7, {2, 3}),
        "stability": {"7": flag_h(7, (7,), {1, 3}), "8": flag_h(8, (8,), {1, 3})},
    }[argv[0]]

    def no_full_table(*args):
        raise AssertionError("a one-S query built the whole table")

    monkeypatch.setattr(cli.flags, "full_table", no_full_table)
    code, doc = run_json(capsys, "--cache-dir", str(tmp_path), *argv)
    assert code == 0
    assert doc["results"]["values" if argv[0] == "stability" else argv[0]] == want
    assert os.listdir(tmp_path) == []


def test_b_past_the_recursion_limit(capsys):
    """S = {1} asks for the partitions of n elements into n - 1 blocks;
    choosing those blocks nests no call per block, so an n past the
    recursion limit answers, with Hanlon's 0 for an initial segment."""
    n = sys.getrecursionlimit() + 100
    code, doc = run_json(capsys, "b", "--n", str(n), "--ranks", "1")
    assert code == 0
    assert doc["results"]["b"] == 0


def test_b_beyond_any_whole_table(tmp_path, capsys, monkeypatch):
    """The subsets of {2, 3} are four supports, so b counts them and never
    counts the whole n = 16 table (E_15 = 1,903,757,312 facet orbits, about
    2 s); asking for the whole table fails at once here."""

    def no_full_table(*args):
        raise AssertionError("rsl b built the whole n = 16 table")

    monkeypatch.setattr(cli.flags, "full_table", no_full_table)
    code, doc = run_json(capsys, "--cache-dir", str(tmp_path), "b", "--n", "16", "--ranks", "2,3")
    assert code == 0
    assert doc["results"]["b"] == 1
    assert os.listdir(tmp_path) == []


def test_whole_table_above_the_bound_is_refused_before_counting(tmp_path, capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("a refused table was counted")

    monkeypatch.setattr(cli.flags, "full_table", no_count)
    n = str(cli.TABLE_MAX_N + 1)
    for argv in (("table", "--n", n), ("vanish", "--n", n), ("--cache-dir", str(tmp_path), "table", "--n", n)):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and f"up to n={cli.TABLE_MAX_N}, got n={n}" in doc["error"], argv
    assert os.listdir(tmp_path) == []


def test_one_s_query_above_the_face_bound_counts_the_whole_table(capsys, monkeypatch):
    """f_{1..10}(12) is E_11 = 353,792 facet orbits, above the one-S bound:
    b and bprime read h_S from the whole table, counted in memory, and
    never count the subsets of S, up to ``TABLE_MAX_N``; above it,
    stability refuses such an S before counting."""
    top = ",".join(map(str, range(1, 11)))
    s = frozenset(range(1, 11))
    cases = (
        (("b", "--n", "12", "--ranks", top), flag_h(12, (12,), s)),
        (("bprime", "--n", "18", "--ranks", top), b_prime(18, s)),
    )

    def no_table(*args):
        raise AssertionError("the subsets of a support past the bound were counted")

    monkeypatch.setattr(cli.flags, "support_table", no_table)
    for argv, want in cases:
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["results"][argv[0]] == want, (argv, doc)
    code, doc = run_json(capsys, "stability", "--ranks", top, "--n", "21", "--m", "22")
    assert code == 2
    assert doc["error"].endswith(f"more than {cli.ONE_S_MAX_FACES} orbit types at n=21"), doc


def test_both_one_s_builders_equal_the_whole_table(capsys, monkeypatch):
    """With the bound lowered to 50, b and bprime at n = 8 count some S over
    their subsets and read the others from the whole table; both equal the
    whole table on all 64 S of (8) and of (7,1)."""
    wanted = {"b": full_table(8, (8,)).h, "bprime": full_table(8, (7, 1)).h}
    calls = {"support_table": 0, "flag_h": 0}

    def counted(name):
        plain = getattr(cli.flags, name)

        def spy(*args):
            calls[name] += 1
            return plain(*args)

        return spy

    monkeypatch.setattr(cli, "ONE_S_MAX_FACES", 50)
    for name in calls:
        monkeypatch.setattr(cli.flags, name, counted(name))
    for cmd, h in wanted.items():
        assert len(h) == 64
        for s, want in h.items():
            code, doc = run_json(capsys, cmd, "--n", "8", "--ranks", ",".join(map(str, sorted(s))))
            assert code == 0 and doc["results"][cmd] == want, (cmd, s)
    assert calls["support_table"] > 0 and calls["flag_h"] > 0, calls


def test_one_s_query_above_the_size_bound_is_refused_before_counting(tmp_path, capsys, monkeypatch):
    """Past ``ONE_S_MAX_N`` b, bprime and stability exit 2 before counting
    S, even S = {1} with f = 1; stability refuses when either size is past
    it.  At the bound itself, b answers."""

    def no_count(*args):
        raise AssertionError("a refused size was counted")

    monkeypatch.setattr(cli, "support_count", no_count)
    monkeypatch.setattr(cli.flags, "support_table", no_count)
    big, small = str(cli.ONE_S_MAX_N + 1), str(cli.ONE_S_MAX_N - 1)
    for argv in (
        ("b", "--n", big, "--ranks", "1"),
        ("bprime", "--n", big, "--ranks", "1"),
        ("stability", "--ranks", "1", "--n", small, "--m", big),
        ("stability", "--ranks", "1", "--n", big, "--m", small),
        ("--cache-dir", str(tmp_path), "b", "--n", big, "--ranks", "1"),
    ):
        code, doc = run_json(capsys, *argv)
        refusal = f"one-S queries are answered up to n={cli.ONE_S_MAX_N}, got n={big}"
        assert code == 2 and doc["error"] == refusal, (argv, doc)
    monkeypatch.undo()
    code, doc = run_json(capsys, "b", "--n", str(cli.ONE_S_MAX_N), "--ranks", f"{cli.ONE_S_MAX_N - 2}")
    assert code == 0 and doc["results"]["b"] == cli.ONE_S_MAX_N // 2 - 1


ONCE_REFUSED_SHAPES = [
    (17, 1), (16, 2), (8, 8), (9, 8), (6, 6, 3), (5, 5, 5), (4, 4, 3, 3), (4, 4, 4, 2),
    (1,) * 12, (4, 4, 4, 4), (3,) * 5, (2,) * 7,
]


def test_whole_table_bound_reads_the_shape(tmp_path, capsys, monkeypatch):
    """The bound reads only n: the shapes that a bound on their letters'
    multiset partitions refused, when the count enumerated them, are
    counted, since no shape of n costs more than (n) by cycle types.  Any
    shape above ``TABLE_MAX_N`` exits 2 before counting."""
    for parts in ONCE_REFUSED_SHAPES:
        assert cli._table_refusal(sum(parts)) is None, parts
    code, doc = run_json(capsys, "--cache-dir", str(tmp_path), "table", "--n", "16", "--lambda", "4,4,4,4")
    assert code == 0 and doc["cache_hit"] is False
    entries = {tuple(e["S"]): (e["f"], e["h"]) for e in doc["results"]["entries"]}
    assert entries == {s: (f, h) for s, f, h in full_table(16, (4, 4, 4, 4)).entries()}
    assert len(os.listdir(tmp_path)) == 1

    def no_count(*args):
        raise AssertionError("a refused table was counted")

    monkeypatch.setattr(cli.flags, "full_table", no_count)
    n = cli.TABLE_MAX_N + 1
    for lam in (f"{n - 1},1", "7,6,6", ",".join(["1"] * n)):
        code, doc = run_json(capsys, "table", "--n", str(n), "--lambda", lam)
        assert code == 2 and f"up to n={cli.TABLE_MAX_N}, got n={n}" in doc["error"], lam


def test_table_of_distinct_letters_is_the_stirling_product(capsys):
    """With every letter distinct the group is trivial, so each f is the
    number of chains of Pi_12 with those ranks."""
    code, doc = run_json(capsys, "table", "--n", "12", "--lambda", ",".join(["1"] * 12))
    assert code == 0
    entries = doc["results"]["entries"]
    assert len(entries) == 2**10
    for entry in entries:
        assert entry["f"] == oracles.classical_flag_f(12, entry["S"]), entry["S"]


def test_only_whole_tables_load_the_class_count():
    """``rsl.classes`` loads with the first whole table, so a request that
    counts none never compiles it."""
    code = """
import contextlib, io, sys
import rsl.cli
loaded = ['rsl.classes' in sys.modules]
for argv in (['b', '--n', '6', '--ranks', '2'], ['table', '--n', '5']):
    with contextlib.redirect_stdout(io.StringIO()):
        rsl.cli.main(argv)
    loaded.append('rsl.classes' in sys.modules)
print(*loaded)
"""
    assert _run_fresh(code).split() == ["False", "False", "True"]


def test_construct_infeasible_ranks(capsys):
    code, doc = run_json(capsys, "construct", "--ranks", "1,2", "--n", "6")
    assert code == 2
    assert "error" in doc


def test_readme_commands_parse():
    """Every ``rsl`` line of the README's shell blocks, with its optional
    brackets opened and its comment cut, is a command the parser accepts."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    commands = [line.split("#")[0].replace("[", "").replace("]", "").split() for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["rsl"]]
    assert len(commands) == 13
    for argv in commands:
        cli.build_parser().parse_args(argv)
