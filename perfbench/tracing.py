"""Spans around calls into rsl's modules, and the per-layer metrics they give.

Wrappers are installed from outside: rsl itself is not changed.  A span has
a name, start, end and parent, and every span of a run carries the run id.
Calls made about 10^6 times per workload (kernel calls) or once per facet
are not kept as spans: each adds to a count and a summed time under the
span that is open when it runs.  Everything stays in memory until the
process writes it out with ``Tracer.dump``.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from time import perf_counter

# Layer of every traced name; a layer's share of a workload is the self time
# of its names over the traced wall time.
LAYERS = {
    "facets": ("bars.enumerate_insertion_facets", "bars.chain_type", "core.enumerate_facet_orbits"),
    "sweep": ("flags.full_table", "kernel.intern_roots", "kernel.drop_roots"),
    "partitioning": (
        "partitioning.verify_partitioning",
        "partitioning.order_facets",
        "bars.sort_key",
        "partitioning.minimal_new_faces",
        "core.restrict",
        "partitioning.coverage",
    ),
    "cli": ("cache.load_table", "cache.store_table"),  # plus every cli.<subcommand>
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}

CLI_COMMANDS = ("table", "b", "bprime", "partition-verify", "construct", "vanish", "stability")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, parent index or None, start, end]
        self.calls = defaultdict(lambda: [0, 0.0])  # (parent index, name) -> [count, seconds]
        self.counts = Counter()
        self.live_stores = weakref.WeakSet()  # node counts of stores still alive at dump
        self._open = [None]

    def span(self, name: str, fn):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            record = [name, stack[-1], perf_counter(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = perf_counter()

        return wrapper

    def timed(self, name: str, fn):
        calls, stack = self.calls, self._open

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = calls[stack[-1], name]
                cell[0] += 1
                cell[1] += perf_counter() - t0

        return wrapper

    def dump(self) -> dict:
        for store in self.live_stores:
            self.counts["kernel.store_nodes"] += store.size()
        self.live_stores = weakref.WeakSet()
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "calls": [[parent, name, c, s] for (parent, name), (c, s) in self.calls.items()],
            "counts": dict(self.counts),
        }


def install(tracer: Tracer, cli=None) -> None:
    """Wrap rsl's public functions in the namespaces their callers use.

    ``flags`` and ``partitioning`` import ``ForestStore``, ``restrict``,
    ``enumerate_facet_orbits`` and ``full_table`` by name, so the wrappers
    go into those module namespaces too.  Pass ``rsl.cli`` to wrap its
    subcommands before ``rsl.cli.main`` builds its parser.
    """
    from rsl import bars, cache, core, flags, kernel, partitioning

    enum = tracer.span("bars.enumerate_insertion_facets", bars.enumerate_insertion_facets)
    bars.enumerate_insertion_facets = partitioning.enumerate_insertion_facets = enum
    bars.InsertionFacet.chain_type = tracer.timed("bars.chain_type", bars.InsertionFacet.chain_type)
    bars.InsertionFacet.sort_key = tracer.timed("bars.sort_key", bars.InsertionFacet.sort_key)

    orbits = tracer.span("core.enumerate_facet_orbits", core.enumerate_facet_orbits)
    core.enumerate_facet_orbits = flags.enumerate_facet_orbits = orbits
    core.restrict = partitioning.restrict = tracer.timed("core.restrict", core.restrict)

    table_cache, plain_full_table = flags._table_cache, flags.full_table

    def full_table(n, shape):
        misses = table_cache.cache_info().misses
        table = plain_full_table(n, shape)
        if table_cache.cache_info().misses != misses:
            tracer.counts["flags.distinct_faces"] += sum(table.f.values())
        return table

    flags.full_table = tracer.span("flags.full_table", full_table)
    partitioning.full_table = tracer.span("partitioning.coverage", flags.full_table)
    flags.ForestStore = partitioning.ForestStore = _counting_store(tracer, kernel.ForestStore)

    plain_verify = partitioning.verify_partitioning

    def verify_partitioning(*args, **kwargs):
        scheme = plain_verify(*args, **kwargs)
        tracer.counts["partitioning.faces_swept"] += scheme.total_faces or 0
        tracer.counts["partitioning.witnesses"] += len(scheme.failures)
        return scheme

    partitioning.verify_partitioning = tracer.span("partitioning.verify_partitioning", verify_partitioning)
    for name in ("order_facets", "minimal_new_faces"):
        setattr(partitioning, name, tracer.span(f"partitioning.{name}", getattr(partitioning, name)))

    plain_load = cache.load_table

    def load_table(*args, **kwargs):
        entries = plain_load(*args, **kwargs)
        tracer.counts["cache.misses" if entries is None else "cache.hits"] += 1
        return entries

    cache.load_table = tracer.span("cache.load_table", load_table)
    cache.store_table = tracer.span("cache.store_table", cache.store_table)
    if cli is not None:
        for command in CLI_COMMANDS:
            attr = "cmd_" + command.replace("-", "_")
            setattr(cli, attr, tracer.span(f"cli.{command}", getattr(cli, attr)))


def _counting_store(tracer: Tracer, base):
    """A ForestStore whose interns and level deletions add to the tracer; the
    node count of every store is added when the store is freed or dumped."""

    class CountingStore(base):
        intern_roots = tracer.timed("kernel.intern_roots", base.intern_roots)
        drop_roots = tracer.timed("kernel.drop_roots", base.drop_roots)

        def __init__(self):
            super().__init__()
            tracer.live_stores.add(self)

        def __del__(self):
            tracer.counts["kernel.store_nodes"] += self.size()

    return CountingStore


# -- per-layer metrics from dumped traces ----------------------------------------


def raw_totals(trace: dict) -> dict:
    """Additive per-name totals of one process's trace: span time, self time,
    call counts and call time, and the drops made under ``flags.full_table``."""
    spans = trace["spans"]
    total = Counter()
    own = Counter()
    for name, parent, start, end in spans:
        total[name + ".total"] += end - start
        own[name] += end - start
        if parent is not None:
            own[spans[parent][0]] -= end - start
    out = Counter()
    for parent, name, count, seconds in trace["calls"]:
        out[name + ".calls"] += count
        own[name] += seconds
        if parent is not None:
            own[spans[parent][0]] -= seconds
            if spans[parent][0] == "flags.full_table" and name == "kernel.drop_roots":
                out["sweep.drop_calls"] += count
    out.update(total)
    out.update({name + ".self": s for name, s in own.items()})
    out.update(trace["counts"])
    return out


def layer_metrics(raw: Counter) -> dict:
    """Named per-layer metrics from summed ``raw_totals``."""
    hits, misses = raw["cache.hits"], raw["cache.misses"]
    metrics = {
        "bars.enumerate_s": (raw["bars.enumerate_insertion_facets.total"], "s"),
        "bars.chain_type_s": (raw["bars.chain_type.self"], "s"),
        "bars.chain_type_calls": (raw["bars.chain_type.calls"], "count"),
        "core.enumerate_facet_orbits_s": (raw["core.enumerate_facet_orbits.total"], "s"),
        "core.facet_orbits_self_s": (raw["core.enumerate_facet_orbits.self"], "s"),
        "kernel.intern_calls": (raw["kernel.intern_roots.calls"], "count"),
        "kernel.drop_calls": (raw["kernel.drop_roots.calls"], "count"),
        "kernel.drop_s": (raw["kernel.drop_roots.self"], "s"),
        "kernel.store_nodes": (raw["kernel.store_nodes"], "count"),
        "flags.full_table_self_s": (raw["flags.full_table.self"], "s"),
        "flags.distinct_faces": (raw["flags.distinct_faces"], "count"),
        "flags.sweep_yield": (
            raw["flags.distinct_faces"] / raw["sweep.drop_calls"] if raw["sweep.drop_calls"] else 0.0,
            "ratio",
        ),
        "partitioning.order_facets_s": (raw["partitioning.order_facets.self"], "s"),
        "bars.sort_key_s": (raw["bars.sort_key.self"], "s"),
        "bars.sort_key_calls": (raw["bars.sort_key.calls"], "count"),
        "partitioning.minimal_new_faces_s": (raw["partitioning.minimal_new_faces.self"], "s"),
        "core.restrict_s": (raw["core.restrict.self"], "s"),
        "core.restrict_calls": (raw["core.restrict.calls"], "count"),
        "partitioning.coverage_s": (raw["partitioning.coverage.total"], "s"),
        "partitioning.faces_swept": (raw["partitioning.faces_swept"], "count"),
        "partitioning.witnesses": (raw["partitioning.witnesses"], "count"),
        "cache.load_s": (raw["cache.load_table.total"], "s"),
        "cache.store_s": (raw["cache.store_table.total"], "s"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = (raw[f"cli.{command}.total"], "s")
    return metrics


def layer_seconds(raw: Counter) -> dict:
    """Self time of each layer, summed over its traced names."""
    out = Counter()
    for key, seconds in raw.items():
        if key.endswith(".self"):
            name = key[: -len(".self")]
            out[LAYER_OF.get(name, "cli" if name.startswith("cli.") else "other")] += seconds
    return out
