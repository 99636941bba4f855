"""The builders that pause the cyclic garbage collector: each leaves the
collector as it found it, returning or raising, keeps it paused through
nested calls, and leaves no cyclic garbage, so a paused collector never
keeps memory alive."""

import gc
from types import SimpleNamespace

import pytest

from rsl import bars, classes, flags, kernel, partitioning
from rsl.orders import distinguished, reverse_length
from rsl.partitioning import LengtheningError
from rsl.shapes import Shape

HOOK = Shape((7, 1))


def _verify():
    return lambda: partitioning.verify_partitioning(8, HOOK, distinguished(HOOK))


def _order():
    return lambda: partitioning.order_facets(9, (9,))


def _minimal_new_faces():
    scheme = partitioning.order_facets(8, (8,))
    return lambda: partitioning.minimal_new_faces(scheme)


def _minimal_faces():
    scheme = partitioning.verify_partitioning(8, (8,))  # reads only the supports
    return lambda: scheme.minimal_faces


def _support_table():
    return lambda: flags.support_table(12, (12,), {1, 2, 3, 5, 8})


def _whole_table():
    return lambda: flags._table_cache.__wrapped__(12, (12,))  # past the kept tables


# Each builder, made ready outside the call, and a name it calls while it builds.
BUILDERS = {
    "verify_partitioning": (_verify, bars, "enumerate_insertion_facets"),
    "order_facets": (_order, bars, "enumerate_insertion_facets"),
    "minimal_new_faces": (_minimal_new_faces, partitioning, "sweep"),
    "minimal_faces": (_minimal_faces, bars, "facet_root_ids"),
    "support_table": (_support_table, flags, "support_counts"),
    "full_table": (_whole_table, classes, "orbit_counts"),
}


def _spy(monkeypatch, module, name) -> list:
    """Record whether the collector is enabled at each call of module.name."""
    seen = []
    plain = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return plain(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_pauses_the_collector_and_enables_it_again(monkeypatch, name):
    make, module, attr = BUILDERS[name]
    build = make()
    seen = _spy(monkeypatch, module, attr)
    assert gc.isenabled()
    build()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_leaves_a_paused_collector_paused(name):
    build = BUILDERS[name][0]()
    gc.disable()
    try:
        build()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_leaves_no_cyclic_garbage(name):
    """With the collector paused around the call, nothing the build dropped
    is left for it: every object is freed by its reference count."""
    build = BUILDERS[name][0]()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: partitioning.order_facets(4, (4,), reverse_length()), LengtheningError),
        (lambda: partitioning.verify_partitioning(4, (4,), reverse_length()), LengtheningError),
        (lambda: partitioning.verify_partitioning(5, (3, 1)), ValueError),
        (lambda: flags.support_table(5, (3, 1), {1}), ValueError),
    ],
)
def test_collector_is_enabled_again_after_a_builder_raises(call, error):
    with pytest.raises(error):
        call()
    assert gc.isenabled()


def test_nested_builders_keep_the_collector_paused(monkeypatch):
    """``verify_partitioning`` calls ``order_facets``, itself paused; the
    collector stays paused through the walk inside it and through the sweep
    after it returns, and is enabled once the outer call returns."""
    walked = _spy(monkeypatch, bars, "enumerate_insertion_facets")
    swept = _spy(monkeypatch, partitioning, "sweep")
    partitioning.verify_partitioning(7, (7,))
    assert walked == [False] and swept == [False]
    assert gc.isenabled()


def test_a_kept_table_pauses_nothing(monkeypatch):
    """``collector_paused`` sits under the table cache, so a kept table is
    returned without touching the collector."""
    flags.full_table(9, (9,))
    calls = []
    stub = SimpleNamespace(
        isenabled=lambda: True,
        disable=lambda: calls.append("disable"),
        enable=lambda: calls.append("enable"),
    )
    monkeypatch.setattr(kernel, "gc", stub)
    flags.full_table(9, (9,))
    assert calls == []
    flags.support_table(6, (6,), {1, 2})
    assert calls == ["disable", "enable"]
