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
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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

# A table row counts as its cells; `schema` loads only where rows are read.
if TYPE_CHECKING:
    from .schema import Row


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


def _cells(t: Sequence[Value] | Row) -> tuple[Value, ...]:
    """A row's cells, or the values of a plain sequence."""
    cells = getattr(t, "cells", None)
    return tuple(t) if cells is None else cells


def corresponding(
    k1: list[ColumnClass], k2: list[ColumnClass]
) -> tuple[tuple[int, int], ...] | None:
    """The positions paired by the natural order-preserving pairing of two
    kind sequences.

    Equal lengths must match kind-for-kind; otherwise the longer sequence is
    projected onto the first kind-matching subsequence covering the shorter
    one.  Returns None when there is no such pairing.
    """
    if len(k1) == len(k2):
        if k1 == k2:
            return tuple((i, i) for i in range(len(k1)))
        return None
    swap = len(k1) > len(k2)
    short, long_ = (k2, k1) if swap else (k1, k2)
    pairs = []
    j = 0
    for i, kind in enumerate(short):
        while j < len(long_) and long_[j] != kind:
            j += 1
        if j == len(long_):
            return None
        pairs.append((j, i) if swap else (i, j))
        j += 1
    return tuple(pairs)




def _shape(cells: tuple[Value, ...]) -> tuple:
    """What a pair is planned by: each cell's class, a taxon's tree name in
    its place."""
    return tuple(v.tree if v.__class__ is Taxon else v.__class__ for v in cells)


@lru_cache(maxsize=1024)
def _plan(shape, shape2, normalizer) -> tuple | None:
    """How to measure two tuples of these shapes; None when they are
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


def _pairs(S, S2, normalizer):
    """Each pair of cells drawn from S and S2, with its plan; raises
    TypeError, as `value_kind` does, on a pair that holds a non-value."""
    rows2 = [(b, _shape(b)) for b in map(_cells, S2)]
    if isinstance(normalizer, Mapping):
        normalizer = tuple(normalizer.items())
    for a in map(_cells, S):
        shape = _shape(a)
        for b, shape2 in rows2:
            plan = _plan(shape, shape2, normalizer)
            if plan is _NOT_CELLS:
                for v in a + b:
                    value_kind(v)
            yield a, b, plan


def _checked(plan, a, b, taxonomies) -> tuple:
    """The positions `plan` measures, once the values of a and b passed
    its checks in cell order and it holds no unavoidable error; raises
    MetricError at the first check that fails."""
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
    return ops


def _term(x: Value, y: Value, mode, taxonomies, d) -> Fraction:
    """The per-class distance of two corresponding cells that passed
    `_checked`, with D the position's normalizer."""
    cls = x.__class__
    if cls is IntInterval:
        return d_num(x, y, mode)
    if cls is Number:
        return abs(x.value - y.value) / d
    if cls is Taxon:
        return d_wp(taxonomies[x.tree], x, y)
    return d_nom(x, y)


def d_vector(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> tuple[Fraction, ...]:
    """Column-wise distance vector over the corresponding cell pairs.

    `normalizer` supplies D for numerical pairs: one value for all, or a
    mapping keyed by the cell position in `t2`.
    """
    ((a, b, plan),) = _pairs((t,), (t2,), normalizer)
    if plan is None:
        raise MetricError("uncomparable tuples")
    return tuple(_term(a[i], b[j], mode, taxonomies, d)
                 for i, j, d in _checked(plan, a, b, taxonomies))


def d_bar(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> Fraction:
    """Scalar tuple distance: the sum of the distance vector entries."""
    return sum(
        d_vector(t, t2, mode, taxonomies=taxonomies, normalizer=normalizer), _ZERO
    )


def hamming(t: Sequence[Value] | Row, t2: Sequence[Value] | Row) -> int | None:
    """Generalized Hamming count over corresponding positions; None when the
    tuples are uncomparable (a partial metric, by design)."""
    a, b = _cells(t), _cells(t2)
    pairs = corresponding([value_kind(v) for v in a], [value_kind(v) for v in b])
    if pairs is None:
        return None
    return sum(1 for i, j in pairs if a[i] != b[j])


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
    best: Fraction | None = None
    for a, b, plan in _pairs(S, S2, normalizer):
        if plan is None:
            continue
        bound = at_most if best is None else best
        total = _ZERO
        for i, j, d in _checked(plan, a, b, taxonomies):
            if a[i] != b[j]:  # every per-class distance is zero on equal values
                term = _term(a[i], b[j], mode, taxonomies, d)
                total = term if total is _ZERO else total + term
                if bound is not None and total > bound:
                    break
        if bound is None or total <= bound:
            best = total
    return best
