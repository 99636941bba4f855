"""The flag table over the subsets of one support by the face sweep, kept
as the tier-1 oracle of ``flags.support_table``, whose pattern count
builds no face and walks no sweep plan.

The faces of S are built bottom-up straight into a ForestStore
(``core.support_root_ids``), and ``kernel.sweep`` reaches the faces of
each subset by one level deletion per face of its canonical parent.  Tests
that count the sweep's work patch this module's ``ForestStore``.
"""

from rsl import flags
from rsl.core import support_root_ids
from rsl.kernel import ForestStore, sweep
from rsl.shapes import RankSet, checked_shape


def support_table(n: int, shape, ranks) -> flags.FlagTable:
    """f and h keyed by every T inside S = ``ranks``, from one sweep of the
    faces of S."""
    shape = checked_shape(n, shape)
    dual_levels = RankSet.primal(n, ranks).as_dual().sorted()
    store = ForestStore()
    tops = support_root_ids(shape, dual_levels, store)
    f_by_mask = {mask: len(faces) for mask, faces in sweep(store, len(dual_levels), tops)}
    return flags._flag_table(n, shape, dual_levels, f_by_mask)
