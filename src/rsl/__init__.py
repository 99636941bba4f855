"""Rank-selected lattice toolkit.

Computes flag f- and h-vectors of the quotient of the partition lattice
order complex by a Young subgroup, verifies the lexicographic partitioning
of the quotient, and builds the explicit facet families behind the
positivity and vanishing results.
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
from .bars import (
    BarInsertion,
    CoverLabel,
    DescentWord,
    InsertionFacet,
    block_conditions,
    cover_labels,
    descent_set,
    descent_word,
    enumerate_insertion_facets,
    facet_to_insertions,
    min_extension,
)
from .flags import (
    FlagTable,
    b_prime,
    check_stability,
    flag_f,
    flag_h,
    full_table,
    reduced_euler,
)
from .partitioning import (
    PartitionScheme,
    minimal_new_faces,
    order_facets,
    verify_partitioning,
)
from .construct import (
    ConstructionError,
    WordUnsupportedError,
    build_bprime,
    build_descending_run,
    build_theorem22,
    build_word,
)
from .vanishing import (
    RankSetShape,
    WitnessChain,
    chain_condition_search,
    classify_rank_set,
    delta_beta_nonvanishing,
    theorem31_witness,
    vanishing_predicates,
)

from . import flags

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the in-process cache of flag tables, so the next call computes
    afresh and the memory it holds can be freed.  ``enumerate_facet_orbits``
    builds its facets on every call.  The named block orders' keys stay
    cached: they are pure, and there is one per block content asked about."""
    flags._table_cache.cache_clear()
