"""Rank-selected lattice toolkit.

Computes flag f- and h-vectors of the quotient of the partition lattice
order complex by a Young subgroup, verifies the lexicographic partitioning
of the quotient, and builds the explicit facet families behind the
positivity and vanishing results.

``bars`` (the bar-insertion facet walk), ``construct`` (the facet
builders) and ``vanishing`` (the vanishing predicates) load on first use:
the first access to one of these modules, or to one of the names below
that it defines, imports it (PEP 562).  Every ``rsl`` CLI request runs in
a fresh process, and most never walk a facet, so they skip compiling
those modules.  ``dir(rsl)`` and ``from rsl import *`` still list and
bind the deferred names.  ``shapes``, ``kernel``, ``core``, ``orders``,
``flags`` and ``partitioning`` load with ``rsl``; ``classes`` loads with
the first whole flag table; ``cache``, ``cli``, ``oracles`` and
``acceptance`` load when imported.
"""

from .shapes import (
    Content,
    MalformedChainError,
    RankSet,
    Shape,
    as_shape,
    dualize,
    full_shape,
    hook_shape,
)
from .core import (
    ChainType,
    block_orbits,
    canonicalize,
    empty_chain,
    enumerate_facet_orbits,
    faces_with_support,
    restrict,
)
from .orders import (
    BlockOrder,
    BlockOrderDomainError,
    custom,
    distinguished,
    length_lex,
    reverse_length,
    verify_lengthening,
)
from .flags import (
    FlagTable,
    b_prime,
    check_stability,
    flag_f,
    flag_h,
    full_table,
)
from .partitioning import (
    PartitionScheme,
    minimal_new_faces,
    order_facets,
    verify_partitioning,
)
from . import core, flags

__version__ = "0.1.0"

_DEFERRED = {
    "bars": (
        "BarInsertion",
        "CoverLabel",
        "DescentWord",
        "InsertionFacet",
        "block_conditions",
        "cover_labels",
        "descent_set",
        "descent_word",
        "enumerate_insertion_facets",
        "facet_to_insertions",
        "min_extension",
    ),
    "construct": (
        "ConstructionError",
        "WordUnsupportedError",
        "build_bprime",
        "build_descending_run",
        "build_theorem22",
        "build_word",
    ),
    "vanishing": (
        "RankSetShape",
        "WitnessChain",
        "chain_condition_search",
        "classify_rank_set",
        "delta_beta_nonvanishing",
        "theorem31_witness",
        "vanishing_predicates",
    ),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _DEFERRED:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_DEFERRED, *_HOME})


def clear_caches() -> None:
    """Empty the in-process caches of whole flag tables and of the one-S
    count's partition steps, so the next call computes afresh and the
    memory they hold can be freed.  ``enumerate_facet_orbits`` builds its
    facets on every call.  The named block orders' keys stay cached: they
    are pure, and there is one per block content asked about."""
    flags._table_cache.cache_clear()
    core._steps.clear()


# Listed, so that ``from rsl import *`` binds the deferred names too.
__all__ = [name for name in __dir__() if not name.startswith("_")]
