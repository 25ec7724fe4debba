"""Value-wise distances over mixed-type tuples.

Per-class metrics (all exact rationals in [0,1]):

  d_nom   Jaccard distance |v Δ v'| / |v ∪ v'| between finite atom sets;
          single atoms count as one-element sets.
  d_num   distance between closed integer intervals, in one of two modes:
          INTEGER_SET is the Jaccard distance over the intervals' integer
          point sets (a true metric, the default everywhere); PAPER_COMPAT
          reproduces the published worked example's arithmetic, 1 - c/L with
          c the shared integer point count and L the real-length union
          measure (len + len' - overlap).  PAPER_COMPAT is not claimed to
          satisfy the triangle inequality and is only selected explicitly.
  d_eucl  normalized |x - x'| / D for plain numbers, with D a fixed positive
          bound on the column's spread.
  d_wp    taxonomy distance 1 - 2*c_xy / (c_x + c_y), where c_x is the node
          count from the root to x inclusive and c_xy the depth of the
          deepest common ancestor.

The direct sum of these gives the column-wise vector d(t,t'), its sum the
scalar d̄(t,t'), and rho(S,S') = min d̄ over type-compatible pairs drawn from
two tuple sets.  The generalized Hamming count d_h is the number of
corresponding positions whose values differ; it is partial, like rho:
uncomparable operands yield None, never a number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .schema import Correspondence, Row, corresponding, type_compatible
from .values import (
    _KINDS,
    Atom,
    AtomSet,
    ColumnClass,
    IntervalMeasureMode,
    IntInterval,
    Number,
    TaxonomyTree,
    Taxon,
    Value,
    value_kind,
)


class MetricError(ValueError):
    """Operands outside a distance function's domain."""


def _as_atom_set(v: Atom | AtomSet) -> frozenset[str]:
    if isinstance(v, Atom):
        return frozenset({v.value})
    if isinstance(v, AtomSet):
        return v.values
    raise MetricError(f"not a nominal value: {v!r}")


def d_nom(v: Atom | AtomSet, v2: Atom | AtomSet) -> Fraction:
    """Jaccard distance between finite atom sets."""
    if v.__class__ is Atom and v2.__class__ is Atom:  # {x} and {y}
        return Fraction(int(v.value != v2.value))
    a, b = _as_atom_set(v), _as_atom_set(v2)
    union = a | b
    return Fraction(len(a ^ b), len(union))


def _overlap_count(a: IntInterval, b: IntInterval) -> int:
    return max(0, min(a.hi, b.hi) - max(a.lo, b.lo) + 1)


def d_num(
    a: IntInterval,
    b: IntInterval,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> Fraction:
    """Distance between closed integer intervals, per the selected mode."""
    if mode is IntervalMeasureMode.INTEGER_SET:
        inter = _overlap_count(a, b)
        union = a.size + b.size - inter
        return Fraction(union - inter, union)
    if a == b:
        return Fraction(0)
    shared = _overlap_count(a, b)
    real_overlap = max(0, min(a.hi, b.hi) - max(a.lo, b.lo))
    length = (a.hi - a.lo) + (b.hi - b.lo) - real_overlap
    if length == 0:
        # two distinct one-point intervals: no shared measure at all
        return Fraction(1)
    val = 1 - Fraction(shared, length)
    return max(Fraction(0), min(Fraction(1), val))


def d_eucl(x: Number | Fraction, x2: Number | Fraction, big_d: Fraction) -> Fraction:
    """Normalized euclidean distance |x - x'| / D."""
    a = x.value if isinstance(x, Number) else Fraction(x)
    b = x2.value if isinstance(x2, Number) else Fraction(x2)
    big_d = Fraction(big_d)
    if big_d <= 0:
        raise MetricError("normalizer D must be positive")
    diff = abs(a - b)
    if diff > big_d:
        raise MetricError(f"|x - x'| = {diff} exceeds the normalizer {big_d}")
    return diff / big_d


def d_wp(tree: TaxonomyTree, x: Taxon | str, y: Taxon | str) -> Fraction:
    """Taxonomy distance 1 - 2*c_xy/(c_x + c_y); zero exactly on equal nodes."""
    xn = x.node if isinstance(x, Taxon) else x
    yn = y.node if isinstance(y, Taxon) else y
    cx, cy = tree.depth(xn), tree.depth(yn)
    cxy = tree.depth(tree.common_ancestor(xn, yn))
    return 1 - Fraction(2 * cxy, cx + cy)


def cell_distance(
    v: Value,
    v2: Value,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | None = None,
) -> Fraction:
    """Dispatch to the per-class metric for one corresponding cell pair."""
    if isinstance(v, (Atom, AtomSet)) and isinstance(v2, (Atom, AtomSet)):
        return d_nom(v, v2)
    if isinstance(v, IntInterval) and isinstance(v2, IntInterval):
        return d_num(v, v2, mode)
    if isinstance(v, Number) and isinstance(v2, Number):
        if normalizer is None:
            raise MetricError("numerical cells need an explicit normalizer D")
        return d_eucl(v, v2, normalizer)
    if isinstance(v, Taxon) and isinstance(v2, Taxon):
        if v.tree != v2.tree:
            raise MetricError(f"taxons from different trees: {v.tree}, {v2.tree}")
        if taxonomies is None or v.tree not in taxonomies:
            raise MetricError(f"no taxonomy named {v.tree!r} supplied")
        return d_wp(taxonomies[v.tree], v, v2)
    raise MetricError(f"no distance between {v!r} and {v2!r}")


def _cells(t: Sequence[Value] | Row) -> tuple[Value, ...]:
    return t.cells if isinstance(t, Row) else tuple(t)


def d_vector(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    corr: Correspondence | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> tuple[Fraction, ...]:
    """Column-wise distance vector over the corresponding cell pairs.

    `normalizer` supplies D for numerical pairs: one value for all, or a
    mapping keyed by the cell position in `t2`.
    """
    a, b = _cells(t), _cells(t2)
    if corr is None:
        corr = type_compatible(a, b)
    if corr is None:
        raise MetricError("uncomparable tuples")
    per_pair = isinstance(normalizer, Mapping)
    return tuple(
        cell_distance(
            a[i], b[j], mode, taxonomies=taxonomies,
            normalizer=normalizer.get(j) if per_pair else normalizer,
        )
        for i, j in corr.pairs
    )


def d_bar(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    corr: Correspondence | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> Fraction:
    """Scalar tuple distance: the sum of the distance vector entries."""
    return sum(
        d_vector(t, t2, corr, mode, taxonomies=taxonomies, normalizer=normalizer),
        Fraction(0),
    )


def hamming(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    corr: Correspondence | None = None,
) -> int | None:
    """Generalized Hamming count over corresponding positions; None when the
    tuples are uncomparable (a partial metric, by design)."""
    a, b = _cells(t), _cells(t2)
    if corr is None:
        corr = type_compatible(a, b)
    if corr is None:
        return None
    return sum(1 for i, j in corr.pairs if a[i] != b[j])


def _shape(cells: tuple[Value, ...]) -> tuple:
    """What rho plans by: each cell's class, a taxon's tree name in its
    place."""
    return tuple(v.tree if v.__class__ is Taxon else v.__class__ for v in cells)


@lru_cache(maxsize=1024)
def _plan(shape, shape2, normalizer) -> tuple | None:
    """How rho measures two tuples of these shapes; None when they are
    uncomparable, `_NOT_CELLS` when a shape holds a non-value.  A plan is
    the corresponding positions with each one's D, the positions whose
    values need a check, in cell order (numerical ones with their D,
    taxoral ones with their tree name), and the message of the first error
    no value can avoid, which ends those checks.  `normalizer` is one D,
    or a mapping's items as a tuple."""
    kinds = [[_KINDS.get(s) if isinstance(s, type) else ColumnClass.TAXORAL
              for s in sh] for sh in (shape, shape2)]
    if None in kinds[0] + kinds[1]:
        return _NOT_CELLS
    pairs = corresponding(*kinds)
    if pairs is None:
        return None
    by_position = dict(normalizer) if isinstance(normalizer, tuple) else None
    ops, checks = [], []
    for i, j in pairs:
        kind, d = kinds[0][i], None
        if kind is ColumnClass.NUMERICAL:
            d = normalizer if by_position is None else by_position.get(j)
            if d is None:
                return (), tuple(checks), "numerical cells need an explicit normalizer D"
            d = Fraction(d)
            if d <= 0:
                return (), tuple(checks), "normalizer D must be positive"
            checks.append((i, j, d))
        elif kind is ColumnClass.TAXORAL:
            if shape[i] != shape2[j]:
                return (), tuple(checks), (
                    f"taxons from different trees: {shape[i]}, {shape2[j]}")
            checks.append((i, j, shape[i]))
        ops.append((i, j, d))
    return tuple(ops), tuple(checks), None


_NOT_CELLS = ((), (), None)
_ZERO = Fraction(0)


def _pair_distance(plan, a, b, mode, taxonomies, bound) -> Fraction | None:
    """d̄(a, b) by `plan`, or None once the sum passes `bound`.  The value
    checks run first, in cell order, so a pair raises as its whole
    distance vector would."""
    ops, checks, error = plan
    for i, j, arg in checks:
        x, y = a[i], b[j]
        if x.__class__ is Number:
            diff = abs(x.value - y.value)
            if diff > arg:
                raise MetricError(f"|x - x'| = {diff} exceeds the normalizer {arg}")
        elif taxonomies is None or arg not in taxonomies:
            raise MetricError(f"no taxonomy named {arg!r} supplied")
        else:
            taxonomies[arg].depth(x.node), taxonomies[arg].depth(y.node)
    if error is not None:
        raise MetricError(error)
    total = _ZERO
    for i, j, d in ops:
        if a[i] != b[j]:  # every per-class distance is zero on equal values
            term = cell_distance(a[i], b[j], mode, taxonomies=taxonomies,
                                 normalizer=d)
            total = term if total is _ZERO else total + term
            if bound is not None and total > bound:
                return None
    return None if bound is not None and total > bound else total


def rho(
    S: Iterable[Sequence[Value] | Row],
    S2: Iterable[Sequence[Value] | Row],
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
    at_most: Fraction | None = None,
) -> Fraction | None:
    """min { d̄(t,t') : t in S, t' in S' } over type-compatible pairs; None
    when no pair is comparable (callers must handle absence explicitly).

    With `at_most`, only the pairs with d̄ <= at_most count, the others as
    if uncomparable.  Each pair's sum stops once it passes that bound, or
    the least d̄ found so far; a pair still raises MetricError exactly as
    its distance vector would, after its value checks, so an input raises
    whatever the bound.  The correspondence, each position's D and every
    error no value can avoid are planned once per pair of shapes.
    """
    rows2 = [(b, _shape(b)) for b in map(_cells, S2)]
    if not rows2:
        return None
    if isinstance(normalizer, Mapping):
        normalizer = tuple(normalizer.items())
    best: Fraction | None = None
    for t in S:
        a = _cells(t)
        shape = _shape(a)
        for b, shape2 in rows2:
            plan = _plan(shape, shape2, normalizer)
            if plan is _NOT_CELLS:
                for v in a + b:
                    value_kind(v)  # raises as type_compatible would
            if plan is None:
                continue
            d = _pair_distance(plan, a, b, mode, taxonomies,
                               at_most if best is None else best)
            if d is not None and (best is None or d < best):
                best = d
    return best
