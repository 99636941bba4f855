import json

from rsl import cache, full_table
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
    code, doc = run_json(capsys, "construct", "--word", "AD", "--n", "4")
    assert code == 2
    code, doc = run_json(capsys, "stability", "--ranks", "3", "--n", "6", "--m", "7")
    assert code == 2


def test_verify_all_quick(capsys):
    code, doc = run_json(capsys, "verify-all", "--max-n", "5", "--quiet")
    assert code == 0
    assert doc["results"]["passed"]
    assert len(doc["results"]["criteria"]) == 13


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


def test_cache_corruption_detected(tmp_path):
    table = full_table(5, full_shape(5))
    path = cache.store_table(str(tmp_path), table)
    doc = json.load(open(path))
    doc["payload"][0][1] += 1  # tamper with an f value
    json.dump(doc, open(path, "w"))
    assert cache.load_table(str(tmp_path), 5, full_shape(5)) is None


def test_construct_infeasible_ranks(capsys):
    code, doc = run_json(capsys, "construct", "--ranks", "1,2", "--n", "6")
    assert code == 2
    assert "error" in doc
