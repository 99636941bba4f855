import ast
import glob
import itertools
import os
from collections import Counter

import pytest

from rsl import (
    RankSet,
    Shape,
    block_conditions,
    canonicalize,
    clear_caches,
    cover_labels,
    descent_set,
    descent_word,
    enumerate_facet_orbits,
    enumerate_insertion_facets,
    facet_to_insertions,
    full_shape,
    min_extension,
    restrict,
)
from rsl import bars
from rsl import core, flags
from rsl.bars import NotMaximalError
from rsl.construct import facet_from_positions
from rsl.core import empty_chain
from rsl.kernel import ForestStore
from rsl.orders import custom, distinguished, length_lex
from rsl.partitioning import LabelTieError, order_facets
from rsl.shapes import bipartitions, hook_shape


def _facet(n, positions):
    return facet_from_positions(n, positions)


def test_long_descending_run_descents():
    f = _facet(10, [2, 4, 6, 8, 7, 5, 3, 1, 9])
    assert str(descent_word(f)) == "DDDDDDDA"
    assert sorted(descent_set(f).ranks) == [1, 2, 3, 4, 5, 6, 7]
    assert descent_set(f).dual


def test_corank_278_facet_descents():
    f = _facet(10, [2, 5, 3, 6, 7, 8, 9, 4, 1])
    assert sorted(descent_set(f).ranks) == [2, 7, 8]


def test_small_facet_words():
    assert str(descent_word(_facet(3, [1, 2]))) == "A"
    assert str(descent_word(_facet(4, [1, 2, 3]))) == "AA"
    assert str(descent_word(_facet(4, [2, 1, 3]))) == "DA"


def test_cover_labels_worked_example():
    labels = cover_labels(_facet(4, [2, 1, 3]))
    assert [lb.position for lb in labels] == [2, 1, 3]
    assert labels[0].r == 0
    assert labels[1].r == 1  # splits the pair block created at corank 1
    assert labels[1].w == (1, 2)


def test_facet_to_insertions_normalization():
    # the facet through (2,2) normalizes to [2, 1, 3]
    facet = next(
        f for f in enumerate_facet_orbits(4, full_shape(4)) if len(f.roots) == 2
        and all(node[0] == (2,) for node in f.roots)
    )
    assert facet_to_insertions(facet).positions == (2, 1, 3)
    unique = enumerate_facet_orbits(3, full_shape(3))[0]
    assert facet_to_insertions(unique).positions == (1, 2)


def test_round_trip_all_facets():
    for n in range(3, 8):
        for ins in enumerate_insertion_facets(n, full_shape(n)):
            assert facet_to_insertions(ins.chain_type()) == ins


def test_round_trip_hook_shape():
    shape = Shape((5, 1))
    from rsl.orders import distinguished

    order = distinguished(shape)
    for ins in enumerate_insertion_facets(6, shape, order):
        assert facet_to_insertions(ins.chain_type(), order) == ins


def _ins(position, left, right, parent_rank):
    return bars.BarInsertion(position, (left,), (right,), parent_rank)


_TWO_TWO = [_ins(2, 2, 2, 0), _ins(1, 1, 1, 1), _ins(3, 1, 1, 1)]  # positions [2, 1, 3]


@pytest.mark.parametrize(
    "insertions",
    [
        [_ins(1, 1, 3, 0), _ins(1, 1, 2, 1), _ins(3, 1, 1, 1)],  # gap 1 is already a bar
        [_ins(1, 1, 2, 0), _ins(2, 1, 2, 1), _ins(3, 1, 1, 1)],  # 1 + 2 != 4
        [_ins(2, 1, 3, 0), _ins(3, 1, 2, 1), _ins(1, 1, 1, 1)],  # left child of 1 ends at 1
        [_TWO_TWO[0], _ins(1, 1, 1, 0), _TWO_TWO[2]],  # the pair was created at 1
        [_ins(3, 3, 1, 0), _ins(1, 1, 2, 1), _ins(2, 1, 1, 2)],  # larger child left
        [_TWO_TWO[0], _ins(3, 1, 1, 1), _ins(1, 1, 1, 1)],  # right twin first
        _TWO_TWO[:2],  # too few
        [  # a child with a letter the shape lacks, ignored by the sum
            bars.BarInsertion(1, (1,), (3, 7), 0),
            bars.BarInsertion(2, (1, 0), (2, 7), 1),
            bars.BarInsertion(3, (1, 0), (1, 7), 2),
        ],
    ],
    ids=["no-gap", "sum", "position", "parent-rank", "orientation", "twin", "too-few", "letters"],
)
def test_malformed_insertions_rejected_at_construction(insertions):
    assert bars.InsertionFacet(full_shape(4), length_lex(), _TWO_TWO).positions == (2, 1, 3)
    with pytest.raises(ValueError):
        bars.InsertionFacet(full_shape(4), length_lex(), insertions)


def test_content_breaks_order_key_ties():
    by_size = custom("size", lambda c: (sum(c),))  # (2,0) and (0,2) tie
    tail = [bars.BarInsertion(1, (0, 1), (0, 1), 1), bars.BarInsertion(3, (1, 0), (1, 0), 1)]
    first = bars.BarInsertion(2, (0, 2), (2, 0), 0)
    assert bars.InsertionFacet((2, 2), by_size, [first] + tail).positions == (2, 1, 3)
    swapped = bars.BarInsertion(2, (2, 0), (0, 2), 0)
    with pytest.raises(ValueError, match="not the normalized split"):
        bars.InsertionFacet((2, 2), by_size, [swapped] + tail)


def test_facet_from_positions_rejects_at_once():
    with pytest.raises(ValueError, match="0 normalized splits put bar 1 at 3"):
        facet_from_positions(4, [3, 1, 2], hook_shape(4))  # length-lex: s is not left
    with pytest.raises(ValueError, match="0 normalized splits put bar 1 at 3"):
        facet_from_positions(4, [3, 2, 1])
    with pytest.raises(ValueError, match="2 normalized splits put bar 1 at 2"):
        facet_from_positions(4, [2, 1, 3], (2, 2))  # (2,0)|(0,2) and (1,1)|(1,1)


def _steps(f):
    """The (row index, left, right) push of each step of a facet's walk."""
    return [(idx, ins.left, ins.right) for (idx, _), ins in zip(f._record.splits, f.insertions)]


def _record_pushes(monkeypatch):
    """A list that collects the arguments of every ``_Walk.push`` call."""
    pushes = []
    real_push = bars._Walk.push

    def push(walk, *split):
        pushes.append(split)
        return real_push(walk, *split)

    monkeypatch.setattr(bars._Walk, "push", push)
    return pushes


def test_facet_from_positions_round_trip(monkeypatch):
    """Positions give back each facet of the walk, record and all, with one
    checked step per bar: the facet keeps the walk's record instead of
    being replayed through the constructor."""
    cases = [(n, full_shape(n), length_lex()) for n in range(2, 9)]
    cases += [(n, hook_shape(n), distinguished(hook_shape(n))) for n in range(2, 8)]
    facets = [(n, shape, order, enumerate_insertion_facets(n, shape, order)) for n, shape, order in cases]

    def replay(*args):
        raise AssertionError("facet_from_positions replayed its insertions")

    pushes = _record_pushes(monkeypatch)
    monkeypatch.setattr(bars.InsertionFacet, "__init__", replay)
    for n, shape, order, walked in facets:
        for f in walked:
            pushes.clear()
            g = facet_from_positions(n, f.positions, shape, order)
            assert g == f and g._record == f._record
            assert pushes == _steps(f)


@pytest.mark.parametrize("shape", [hook_shape(7), Shape((4, 3))], ids=str)
def test_facet_from_positions_refuses_ambiguous_positions(shape):
    """Where the order does not tell a split's contents from its sizes, as
    length-lex on (6,1) and (4,3), positions do not determine the facet:
    84 position lists for 272 and 935 facets.  Each facet is refused at a
    bar with several splits, never rebuilt as another facet."""
    facets = enumerate_insertion_facets(shape.n, shape, length_lex())
    for f in facets:
        with pytest.raises(ValueError, match="[2-9] normalized splits put bar"):
            facet_from_positions(shape.n, f.positions, shape, length_lex())
    assert len({f.positions for f in facets}) == 84


def test_facet_to_insertions_rejects_faces():
    facet = enumerate_facet_orbits(5, full_shape(5))[0]
    face = restrict(facet, RankSet.primal(5, {2}))
    with pytest.raises(NotMaximalError):
        facet_to_insertions(face)


def test_min_extension_corank_278_face():
    f = _facet(10, [2, 5, 3, 6, 7, 8, 9, 4, 1])
    face = restrict(f.chain_type(), RankSet.of_dual(10, {2, 7, 8}))
    assert min_extension(face).positions == (2, 5, 3, 6, 7, 8, 9, 4, 1)


def test_min_extension_of_maximal_chain_is_identity():
    for ins in enumerate_insertion_facets(6, full_shape(6)):
        assert min_extension(ins.chain_type()) == ins


def test_min_extension_is_lex_least_containing_facet():
    """Every face's extension is the first facet, in label order, that
    contains it.  (3,3) and (2,2,1) have equal two-letter children, so
    their searches keep tied placements as target rows of one walk."""
    for shape in (full_shape(4), full_shape(5), full_shape(6), Shape((3, 3)), Shape((2, 2, 1))):
        n = shape.n
        facets = sorted(enumerate_insertion_facets(n, shape), key=lambda f: f.sort_key())
        chains = [f.chain_type() for f in facets]
        seen = set()
        faces = []
        for ct in chains:
            for ranks in _subsets(ct.support):
                face = restrict(ct, RankSet.primal(n, ranks))
                if face not in seen:
                    seen.add(face)
                    faces.append(face)
        for face in faces:
            ext = min_extension(face)
            best = next(
                f
                for f, ct in zip(facets, chains)
                if restrict(ct, RankSet.primal(n, face.support)) == face
            )
            assert ext == best, (face.serialize(), ext.positions, best.positions)
        if shape == Shape((3, 3)):
            assert (len(facets), len(faces)) == (152, 621)


def test_min_extension_steps_on_one_walk(monkeypatch):
    """Under a named order each face's extension takes n-1 checked steps on
    one walk and keeps its record: the constructor never replays it."""
    pushes = _record_pushes(monkeypatch)

    def replay(*args):
        raise AssertionError("min_extension replayed its insertions")

    monkeypatch.setattr(bars.InsertionFacet, "__init__", replay)
    count = 0
    for shape, order in ((full_shape(7), length_lex()), (hook_shape(7), distinguished(hook_shape(7)))):
        for size in range(6):
            for ranks in itertools.combinations(range(1, 6), size):
                for face in core.faces_with_support(7, shape, ranks):
                    pushes.clear()
                    ext = min_extension(face, order)
                    assert pushes == _steps(ext)
                    count += 1
    assert count == 2_229


def test_min_extension_forks_on_distinct_tied_insertions(monkeypatch):
    """A key that sees only a block's size ties distinct insertions.  The
    search then forks its walk and lets later labels decide; where none
    decides, distinct facets share a label sequence."""
    size = custom("size", lambda c: (sum(c),))
    forks = []
    real_fork = bars._Walk.fork
    monkeypatch.setattr(bars._Walk, "fork", lambda walk: forks.append(walk) or real_fork(walk))
    face = core.ChainType.deserialize("02@3(01@2,01@2),11@3(11@2),20@3(20@2)", Shape((3, 3)))
    assert min_extension(face, size).positions == (2, 4, 1, 3, 5)
    assert forks
    with pytest.raises(bars.ExtensionTieError, match="distinct facets share a full label sequence"):
        min_extension(empty_chain(Shape((2, 1))), size)


def _callers(name):
    """(module, enclosing def or class path) of each call of ``name`` in
    the package's source."""
    callers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                if (getattr(child.func, "id", None) or getattr(child.func, "attr", None)) == name:
                    callers.add((module, ".".join(scope)))
            visit(child, module, scope)

    for path in glob.glob(os.path.join(os.path.dirname(bars.__file__), "*.py")):
        with open(path) as fh:
            visit(ast.parse(fh.read()), os.path.splitext(os.path.basename(path))[0], ())
    return callers


def test_no_module_replays_a_facet():
    """Every builder in the package keeps its walk's record through
    ``InsertionFacet._walked``; the checked constructor is for callers
    outside it."""
    assert _callers("InsertionFacet") == set()


def test_only_the_step_makes_an_insertion():
    """The bar-insertion step is the one place an insertion is normalized:
    no builder makes a ``BarInsertion`` and hands it to the walk."""
    assert _callers("BarInsertion") == {("bars", "_Walk.push")}


def _subsets(ranks):
    import itertools

    for size in range(len(ranks) + 1):
        yield from itertools.combinations(ranks, size)


def test_min_extension_adds_only_ascents():
    for n in (5, 6):
        shape = full_shape(n)
        seen = set()
        for f in enumerate_insertion_facets(n, shape):
            ct = f.chain_type()
            for ranks in _subsets(ct.support):
                face = restrict(ct, RankSet.primal(n, ranks))
                if face in seen:
                    continue
                seen.add(face)
                ext = min_extension(face)
                descents = descent_set(ext).ranks
                assert descents <= set(face.rank_set().as_dual().ranks)


def test_block_conditions_examples():
    two_two = canonicalize([[{1, 2}, {3, 4}]], full_shape(4))
    assert block_conditions(two_two) == (False, True)
    three_one = canonicalize([[{1, 2, 3}, {4}]], full_shape(4))
    assert block_conditions(three_one) == (True, True)
    three_three = canonicalize([[{1, 2, 3}, {4, 5, 6}]], full_shape(6))
    assert block_conditions(three_three) == (False, False)


def test_word_length_invariant():
    for n in range(3, 8):
        for f in enumerate_insertion_facets(n, full_shape(n)):
            assert len(descent_word(f)) == n - 2


def test_render_grammar():
    f = _facet(10, [2, 4, 6, 8, 7, 5, 3, 1, 9])
    assert f.render() == "o|8o|1o|7o|2o|6o|3o|5o|4o|9o"


def _left_peels(k):
    """The facet of (1^k) that peels the letters off left to right, each
    peel the smaller child: k-1 insertions at gaps 1..k-1."""
    unit = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    rest = [tuple(int(j >= i) for j in range(k)) for i in range(k)]  # letters i.. of k
    insertions = [bars.BarInsertion(t, unit[t - 1], rest[t], t - 1) for t in range(1, k)]
    return bars.InsertionFacet((1,) * k, length_lex(), insertions)


def test_render_eleven_letters():
    assert _left_peels(11).positions == tuple(range(1, 11))
    assert _left_peels(11).render() == "a|1b|2c|3d|4e|5f|6g|7h|8i|9j|10k"


def test_render_refuses_more_than_26_letters():
    assert _left_peels(26).render().endswith("|25z")
    with pytest.raises(ValueError, match="at most 26 letters, not 27"):
        _left_peels(27).render()


def test_render_hook_letters():
    from rsl.construct import build_bprime

    facet = build_bprime({1}, 4)[0]
    diagram = facet.render()
    assert set(diagram) <= set("ab|0123456789")
    assert diagram.count("a") + diagram.count("b") == 4


def test_min_extension_lex_least_hook_shape():
    from rsl.orders import distinguished

    n = 5
    shape = Shape((4, 1))
    order = distinguished(shape)
    facets = sorted(enumerate_insertion_facets(n, shape, order), key=lambda f: f.sort_key())
    seen = set()
    for f in facets:
        ct = f.chain_type()
        for ranks in _subsets(ct.support):
            face = restrict(ct, RankSet.primal(n, ranks))
            if face in seen:
                continue
            seen.add(face)
            ext = min_extension(face, order)
            best = next(
                g
                for g in facets
                if restrict(g.chain_type(), RankSet.primal(n, face.support)) == face
            )
            assert ext == best, (face.serialize(), ext.positions, best.positions)


def test_quadruple_labels_structure():
    from rsl.construct import build_bprime

    facet = build_bprime({2, 3, 6}, 8)[0]
    for label in cover_labels(facet):
        assert len(label.prefix) == label.bars_left + 1
        assert label.prefix[-1] == label.w_b


# -- the interned-id route against explicit chains of set partitions ------------


def _explicit_chain(facet):
    """The facet as set partitions of 1..n, finest first.

    The first t bars cut the row of balls into intervals.  Each ball's
    letter is read off the insertion contents, and balls are relabelled so
    that the letters follow ``Shape.letter_of``.
    """
    n, shape = facet.n, facet.shape
    contents = {(1, n): shape.root_content}  # ball interval -> content
    for ins in facet.insertions:
        (lo, hi), = [iv for iv in contents if iv[0] <= ins.position < iv[1]]
        del contents[lo, hi]
        contents[lo, ins.position] = ins.left
        contents[ins.position + 1, hi] = ins.right
    pools = [[e for e in range(1, n + 1) if shape.letter_of(e) == k] for k in range(shape.k)]
    label = {ball: pools[contents[ball, ball].index(1)].pop(0) for ball in range(1, n + 1)}
    chain = []
    for t in range(n - 2, 0, -1):
        cuts = [0] + sorted(facet.positions[:t]) + [n]
        chain.append([{label[b] for b in range(lo + 1, hi + 1)} for lo, hi in zip(cuts, cuts[1:])])
    return chain


def _oracle_shapes():
    for n in range(2, 8):
        yield n, full_shape(n)
        yield n, Shape((n - 1, 1))
    yield 7, Shape((4, 3))
    yield 6, Shape((3, 2, 1))


@pytest.mark.parametrize("n,shape", list(_oracle_shapes()), ids=str)
def test_root_ids_match_canonicalized_explicit_chains(n, shape):
    facets = enumerate_insertion_facets(n, shape)
    expected = [canonicalize(_explicit_chain(f), shape) for f in facets]
    assert [f.chain_type() for f in facets] == expected
    store = ForestStore()
    ids = [f.root_ids(store) for f in facets]
    nodes = store.size()
    assert ids == [store.intern_roots(ct.roots) for ct in expected]
    assert store.size() == nodes  # interning the oracle's forests adds nothing
    assert bars.facet_root_ids(ForestStore(), facets) == ids


@pytest.mark.parametrize(
    "n,parts,order",
    [(9, (9,), None), (8, (7, 1), "distinguished"), (7, (4, 3), None), (6, (3, 2, 1), None),
     (8, (5, 2, 1), None)],
    ids=str,
)
def test_facet_root_ids_shares_levels_without_reordering_nodes(n, parts, order):
    # one call over all facets answers shared levels from its memo, yet
    # interns the same nodes in the same order as one call per facet
    shape = Shape(parts)
    facets = enumerate_insertion_facets(n, shape, distinguished(shape) if order else None)
    store = ForestStore()
    ids = bars.facet_root_ids(store, facets)
    alone = ForestStore()
    assert ids == [f.root_ids(alone) for f in facets]
    assert store._nodes == alone._nodes


def test_facet_root_ids_node_calls_on_full_shape_n9():
    # one call per facet makes 48,475 node calls on these 1,385 facets
    calls = []

    class CountingStore(ForestStore):
        def node(self, cid, child_ids):
            calls.append(cid)
            return super().node(cid, child_ids)

    store = CountingStore()
    bars.facet_root_ids(store, enumerate_insertion_facets(9, full_shape(9)))
    assert len(calls) <= 11_000
    assert store.size() == 1_719


def test_facet_orbit_edge_cases():
    assert enumerate_facet_orbits(2, full_shape(2)) == (empty_chain(full_shape(2)),)
    assert core.support_root_ids(full_shape(2), (), ForestStore()) == [()]
    assert len(enumerate_facet_orbits(3, full_shape(3))) == 1
    assert len(core.support_root_ids(full_shape(3), (1,), ForestStore())) == 1
    assert [f.chain_type() for f in enumerate_insertion_facets(2, full_shape(2))] == [
        empty_chain(full_shape(2))
    ]


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_duplicate_orbit_guard(monkeypatch, fresh_caches):
    """A repeated grouping in the bottom-up builder is caught by the builder
    itself, for the tables of one support and for the facet orbits alike.
    Whole tables build no face; their count has its own guard, an exact
    division (``tests/test_classes.py``)."""
    real = core.multiset_partitions

    def first_partition_twice(content, num_parts):
        parts = list(real(content, num_parts))
        return parts[:1] + parts

    monkeypatch.setattr(core, "multiset_partitions", first_partition_twice)
    with pytest.raises(AssertionError, match="duplicate orbit"):
        flags.support_table(5, full_shape(5), range(1, 4))
    with pytest.raises(AssertionError, match="duplicate orbit"):
        enumerate_facet_orbits(5, full_shape(5))


def test_doubled_split_is_a_label_tie(monkeypatch):
    """A split the bar walk takes twice yields two facets with one label
    sequence, which the facet order refuses."""
    real = bars.bipartitions

    def first_split_twice(content):
        splits = list(real(content))
        return splits[:1] + splits

    monkeypatch.setattr(bars, "bipartitions", first_split_twice)
    with pytest.raises(LabelTieError):
        order_facets(5, full_shape(5))


def test_walk_splits_each_content_once(monkeypatch):
    """Every content of at least two balls below (4, 4) is split by the
    walk, and its bipartitions are computed once per walk, not once per
    split nor once per process."""
    calls = Counter()

    def counted(content):
        calls[content] += 1
        return bipartitions(content)

    monkeypatch.setattr(bars, "bipartitions", counted)
    splittable = {c for c in itertools.product(range(5), repeat=2) if sum(c) >= 2}
    for _ in range(2):
        calls.clear()
        enumerate_insertion_facets(8, (4, 4))
        assert set(calls) == splittable
        assert set(calls.values()) == {1}


def test_walk_scans_each_row_once(monkeypatch):
    """The facet walk lists a row's splittable blocks once per walk node
    that has a next step, and the step it pushes scans nothing."""
    scans = []
    real_splittable, real_push = bars._splittable, bars._Walk.push

    def splittable(row):
        scans.append(row)
        return real_splittable(row)

    def push(walk, *split):
        before = len(scans)
        made = real_push(walk, *split)
        assert len(scans) == before, "push scanned the row"
        return made

    monkeypatch.setattr(bars, "_splittable", splittable)
    monkeypatch.setattr(bars._Walk, "push", push)
    facets = enumerate_insertion_facets(8, (8,))
    nodes = {f.insertions[:k] for f in facets for k in range(7)}  # the nodes at t = 1..7
    assert len(scans) == len(nodes)


def _walk_without_memo(n, shape, order):
    """The facets' insertion lists, walked with a fresh bipartitions call at
    every split."""
    out = []

    def rec(row, t, acc):
        if t == n:
            out.append(tuple(acc))
            return
        for idx in bars._splittable(row):
            content, created, _, start = row[idx]
            for a, b in bipartitions(content):
                left, right = bars._oriented(order, a, b)
                ins = bars.BarInsertion(start + sum(left), left, right, created)
                rec(bars._split_row(row, idx, left, right, t), t + 1, acc + [ins])

    rec([(shape.root_content, 0, None, 0)], 1, [])
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_walk_memo_keeps_facet_order(n):
    for shape in {full_shape(n), hook_shape(n)}:
        facets = enumerate_insertion_facets(n, shape)
        want = _walk_without_memo(n, shape, facets[0].order)
        assert [f.insertions for f in facets] == want


# -- the walk's record and the label keys against the checked replay -------------


def _record_cases():
    yield 7, full_shape(7), length_lex()
    yield 7, hook_shape(7), length_lex()
    yield 7, hook_shape(7), distinguished(hook_shape(7))
    yield 7, Shape((4, 3)), length_lex()
    yield 8, Shape((5, 2, 1)), distinguished(Shape((5, 2, 1)))


@pytest.mark.parametrize("n,shape,order", list(_record_cases()), ids=str)
def test_walked_records_equal_the_checked_replay(n, shape, order):
    """Each facet of the walk keeps a copy of the walk's record instead of
    being replayed; that record equals the one the public constructor
    builds by replaying the facet's insertions from the root."""
    facets = enumerate_insertion_facets(n, shape, order)
    for f in facets:
        replayed = bars.InsertionFacet(shape, order, f.insertions)
        assert f._record == replayed._record
    if shape == Shape((5, 2, 1)):
        assert len(facets) == 15_621
    # facets that share their first two steps share the walk's prefix tuples
    shared = {}
    for f in facets:
        shared.setdefault(f.insertions[:2], set()).add(id(f._record.prefixes[1]))
    assert all(len(ids) == 1 for ids in shared.values())


def test_walk_checks_each_step_against_the_normalized_split(monkeypatch):
    """A walk whose step puts the larger child left yields facets that are
    not normalized, and the checking constructor refuses every one."""
    real = bars._oriented
    with monkeypatch.context() as patched:
        patched.setattr(bars, "_oriented", lambda order, a, b: real(order, a, b)[::-1])
        facets = enumerate_insertion_facets(7, full_shape(7))
    assert len(facets) == 61
    for f in facets:
        with pytest.raises(ValueError, match="not the normalized split"):
            bars.InsertionFacet(full_shape(7), f.order, f.insertions)


def test_walk_checks_and_orients_each_split_once(monkeypatch):
    """In one walk the sum check and ``_oriented`` run once per distinct
    split (content, a, b): 20 times on the 4,340 edges of (9).  A second
    walk checks again, and a fork shares its walk's checks."""
    oriented, summed = [], []
    real_oriented, real_add = bars._oriented, bars.add_contents

    def counted_oriented(order, a, b):
        oriented.append((a, b))
        return real_oriented(order, a, b)

    def counted_add(a, b):
        summed.append(a + b)
        return real_add(a, b)

    monkeypatch.setattr(bars, "_oriented", counted_oriented)
    monkeypatch.setattr(bars, "add_contents", counted_add)
    for _ in range(2):
        oriented.clear()
        summed.clear()
        facets = enumerate_insertion_facets(9, full_shape(9))
        edges = {f.insertions[:k] for f in facets for k in range(1, 9)}
        assert len(edges) == 4_340
        assert len(oriented) == len(set(oriented)) == 20
        assert len(summed) == 20
    walk = bars._Walk(full_shape(4), length_lex())
    walk.push(0, (1,), (3,))
    twin = walk.fork()
    oriented.clear()
    twin.pop()
    twin.push(0, (3,), (1,))  # a split neither walk has made
    twin.pop()
    twin.push(0, (1,), (3,))  # the split its walk checked
    walk.pop()
    walk.push(0, (3,), (1,))  # the split its fork checked
    assert oriented == [((3,), (1,))]


@pytest.mark.parametrize(
    "a,b",
    [((1,), (2,)), ((0,), (4,)), ((5,), (-1,)), ((2, 0), (2,)), ((1, 1), (1, 1))],
    ids=["sum", "empty", "negative", "extra-letter", "two-letters"],
)
def test_walk_refuses_a_malformed_split_of_a_checked_content(a, b):
    """A split of the root content (4,) is checked and memoized first; a
    malformed split of that content still raises, on every push."""
    walk = bars._Walk(full_shape(4), length_lex())
    walk.push(0, (2,), (2,))
    walk.pop()
    for _ in range(2):
        with pytest.raises(ValueError, match="children do not sum to the block"):
            walk.push(0, a, b)
    assert walk.push(0, (3,), (1,)) == bars.BarInsertion(1, (1,), (3,), 0)


def _key_of_label(label, order, general):
    """The sort key of one cover label, read from its documented fields."""
    if general:
        return (
            label.bars_left,
            order.key(label.w_b),
            tuple(order.key(b) for b in label.prefix),
            label.r,
        )
    return (label.position, label.w, label.r)


@pytest.mark.parametrize(
    "n,shape,order",
    [
        (9, full_shape(9), length_lex()),
        (8, hook_shape(8), distinguished(hook_shape(8))),
        (7, Shape((4, 3)), length_lex()),
    ],
    ids=str,
)
def test_sort_key_is_the_key_of_the_cover_labels(n, shape, order):
    general = not shape.is_full()
    for f in enumerate_insertion_facets(n, shape, order):
        assert f.sort_key() == tuple(_key_of_label(lb, order, general) for lb in cover_labels(f))


def test_descent_letters_are_final_once_decided():
    """``bars._descent`` on a walk in progress: replayed step by step, every
    facet's letters, once decided, are its final letters, and none is open
    when the facet is complete."""
    cases = [(full_shape(n), length_lex()) for n in range(3, 9)]
    cases += [(hook_shape(n), distinguished(hook_shape(n))) for n in range(3, 8)]
    cases += [(Shape((3, 3)), length_lex()), (Shape((2, 2, 2)), length_lex())]
    count = 0
    for shape, order in cases:
        for f in enumerate_insertion_facets(shape.n, shape, order):
            final = f.descent_dual_set()
            walk = bars._Walk(shape, order)
            for t, step in enumerate(_steps(f), start=1):
                walk.push(*step)
                for r in range(1, t):
                    got = bars._descent(walk.insertions, walk.splits, walk.left_split, order.key, r)
                    assert got is None or got == (r in final), (f, t, r)
            for r in range(1, shape.n - 1):
                assert bars._descent(walk.insertions, walk.splits, walk.left_split, order.key, r) is not None
            count += 1
    assert count == 1366
