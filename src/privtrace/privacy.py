"""Mechanisms as finite probabilistic maps, and the epsilon calculus.

Every probability is an exact Fraction.  Epsilon values are reported in the
exact form scale*ln(ratio) (both rationals) whenever they arise from rational
probabilities.  One comparator, `compare`, orders these values, unbounded
ones and plain rationals exactly, and refuses two that agree to
`MAX_LN_DIGITS` significant digits.

Scanning never raises on zero-probability asymmetries: they yield a
distinguished "unbounded" result value.  LDP, and Hamming DP over named
inputs, count only pairs at distance 1, so they take one pass per output
(O(inputs * outputs)); other adjacencies scan the input pairs.  This
module imports the metric layer only in the functions that measure tuples,
and never the schema layer.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .values import (
    Atom,
    IntervalMeasureMode,
    Names,
    Record,
    Required,
    TaxonomyTree,
    parse_fraction,
    shaped,
)


class PrivacyError(ValueError):
    pass


# The shape of a mechanism document, in a scenario or a file of its own:
# each probability is an exact number that `from_rows` reads.
MECHANISM = {"name": str, "outputs": [str], "probs": Required(Names(Names(object)))}


class Mechanism(Record):
    """A finite map from input instances to exact output distributions."""

    name: str
    inputs: tuple
    outputs: tuple
    table: Mapping[tuple, Fraction]

    def _check(self) -> None:
        name, table = self.name, self.table
        for v in self.inputs:
            total = Fraction(0)
            for o in self.outputs:
                p = table.get((v, o), Fraction(0))
                if p < 0 or p > 1:
                    raise PrivacyError(f"{name}: probability {p} out of range")
                total += p
            if total != 1:
                raise PrivacyError(f"{name}: input {v!r} distributes {total}, not 1")

    @classmethod
    def from_rows(cls, name: str, rows: Mapping, outputs: Sequence | None = None):
        """Build from {input: {output: prob}}; probs accept Fraction strings.
        Outputs keep first-seen order, declared `outputs` first."""
        table = {}
        outs = dict.fromkeys(outputs or ())
        for v, dist in rows.items():
            for o, p in dist.items():
                outs.setdefault(o)
                try:
                    table[(v, o)] = parse_fraction(p)
                except ValueError as exc:
                    where = f"mechanism {name!r} probs.{v}.{o}"
                    raise PrivacyError(f"{where}: {exc}") from None
        return cls(name, tuple(rows), tuple(outs), table)

    @classmethod
    def from_doc(cls, name: str, doc):
        """Build from a MECHANISM document, named by its `name` field, else
        `name`."""
        shaped(doc, MECHANISM, f"mechanism {name!r}")
        return cls.from_rows(doc.get("name", name), doc["probs"], doc.get("outputs"))

    def prob(self, v, o) -> Fraction:
        return self.table.get((v, o), Fraction(0))

    def support(self, v) -> tuple:
        return tuple(o for o in self.outputs if self.prob(v, o) > 0)

    def event_prob(self, v, event: Iterable) -> Fraction:
        return sum((self.prob(v, o) for o in event), Fraction(0))


class EpsilonResult(Record):
    """An epsilon bound: value = scale * ln(ratio), exact where possible.

    `unbounded` marks a zero-probability asymmetry (no finite epsilon);
    `both_zero` flags the 0-vs-0 convention (epsilon 0 by agreement).
    """

    scale: Fraction | None = None
    ratio: Fraction | None = None
    unbounded: bool = False
    both_zero: bool = False
    witness: tuple | None = None

    @property
    def value(self) -> float:
        if self.unbounded:
            return math.inf
        if self.ratio is None or self.ratio == 1 or self.scale == 0:
            return 0.0
        if self.scale > sys.float_info.max:  # past the float range: bound it exactly
            lo = _bounds(self.scale, self.ratio, 20)[0]
            return float(lo) if lo <= sys.float_info.max else math.inf
        return float(self.scale) * (
            math.log(self.ratio.numerator) - math.log(self.ratio.denominator)
        )

    def exact_str(self) -> str:
        if self.unbounded:
            return "unbounded"
        if self.ratio is None:
            return "0"
        ln = f"ln({self.ratio.numerator}/{self.ratio.denominator})"
        if self.scale == 1:
            return ln
        return f"({self.scale.numerator}/{self.scale.denominator})*{ln}"

    def __str__(self) -> str:
        if self.unbounded:
            return "unbounded"
        return f"{self.exact_str()} ≈ {self.value:.12g}"

    def witness_str(self) -> str:
        if self.witness is None or self.witness[0] is None:
            return "none"
        parts = [repr(w) if isinstance(w, str) else str(w) for w in self.witness]
        return "(" + ", ".join(parts) + ")"


def _cmp(x, y) -> int:
    return (x > y) - (x < y)


def _log_form(x) -> tuple | None:
    """(s, r) for s*ln(r) with r > 1, (q, None) for a rational q, None if unbounded."""
    if not isinstance(x, EpsilonResult):
        return Fraction(x), None
    if x.unbounded:
        return None
    s, r = x.scale, x.ratio
    if r is None or r == 1 or s == 0:
        return Fraction(0), None
    return (s, r) if r > 1 else (-s, 1 / r)


def _iroot(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 1, when n is a perfect k-th power."""
    if k >= n.bit_length():  # n < 2**k; past here, k < bits(n) bounds each power
        return 1 if n == 1 else None
    x = 1 << -(-n.bit_length() // k)  # above the root; Newton steps down
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x if x**k == n else None


def _bounds(s, r: Fraction | None, prec: int) -> tuple:
    """(lo, hi) around s*ln(r) for r > 1, or s when r is None, less than
    a relative 10**(3 - prec) apart.  With r = 1 + x: when x has about
    `prec` or more zeros after the point, x - x*x/2 < ln(r) < x;
    otherwise the `decimal` ln of the quotient r rounded to prec + zeros
    digits is off by under an ulp plus 10**(1 - digits), which the extra
    digits keep small beside ln(r) ~ x."""
    if r is None:
        return s, s
    x = r - 1
    zeros = max(0, (x.denominator.bit_length() - x.numerator.bit_length()) * 3 // 10)
    if zeros >= prec:
        return tuple(sorted((s * (x - x * x / 2), s * x)))
    ctx = decimal.Context(prec=prec + zeros)
    ln = ctx.ln(ctx.divide(r.numerator, r.denominator))
    err = Fraction(10) ** (ln.adjusted() - ctx.prec + 1) + Fraction(10) ** (1 - ctx.prec)
    return tuple(sorted((s * (Fraction(ln) - err), s * (Fraction(ln) + err))))


# The most significant digits `compare` computes a logarithm to (the
# doubling from 20 stops here): two epsilons whose bounds still overlap
# agree to about this many digits and are refused, not ordered.  Each ln
# is then taken to at most twice this many digits: ~0.3 s for a
# 4,000-digit ratio (input integers may have up to 4,300 digits) under
# CPython 3.11 on a 2-vCPU Xeon VM.
MAX_LN_DIGITS = 1280


def _brief(x) -> str:
    """x's exact text, each run of over 40 digits cut to its first 20."""
    text = x.exact_str() if isinstance(x, EpsilonResult) else str(x)
    return re.sub(r"\d{41,}", lambda d: f"{d[0][:20]}...({len(d[0])} digits)", text)


def compare(a, b) -> int:
    """The sign of a - b, exact, for EpsilonResults and rationals, with no
    ratio raised to a power derived from a scale.  With sb/sa = p/q in
    lowest terms, sa*ln(ra) = sb*ln(rb) only if ra = c**p and rb = c**q.
    Unequal values part at some precision of the decimal ln bounds, since a
    rational never equals a non-zero s*ln(r) (Lindemann-Weierstrass), but
    values that agree to `MAX_LN_DIGITS` digits raise PrivacyError."""
    fa, fb = _log_form(a), _log_form(b)
    if fa is None or fb is None:
        return (fa is None) - (fb is None)
    (sa, ra), (sb, rb) = fa, fb
    sign = _cmp(sa, 0)  # a value's sign is its scale's
    if sign != _cmp(sb, 0) or sign == 0 or ra == rb:
        return _cmp(sa, sb)
    if ra is not None and rb is not None:
        by_scale, by_ratio = _cmp(sa, sb), sign * _cmp(ra, rb)
        if by_scale * by_ratio >= 0:  # both orders agree, or one is a tie
            return by_scale or by_ratio
        t = sb / sa
        roots = [_iroot(n, k) for r, k in ((ra, t.numerator), (rb, t.denominator))
                 for n in (r.numerator, r.denominator)]
        if None not in roots and roots[:2] == roots[2:]:
            return 0
    prec = 20
    while prec <= MAX_LN_DIGITS:
        (lo_a, hi_a), (lo_b, hi_b) = _bounds(sa, ra, prec), _bounds(sb, rb, prec)
        if hi_a < lo_b or hi_b < lo_a:
            return _cmp(lo_a, lo_b)
        prec *= 2
    raise PrivacyError(
        f"cannot order epsilons {_brief(a)} and {_brief(b)}: they agree to "
        f"{MAX_LN_DIGITS} digits"
    )


def is_eps_indistinguishable(m: Mechanism, v, v2, alpha, eps) -> bool:
    """Both bounds p <= e^eps * p' and p' <= e^eps * p for output alpha."""
    return compare(eps, min_indist_epsilon(m, v, v2, alpha)) >= 0


def min_indist_epsilon(m: Mechanism, v, v2, alpha) -> EpsilonResult:
    """The minimal epsilon making v and v' indistinguishable wrt alpha:
    |ln(p/p')|, reported exactly as ln(max/min)."""
    p, p2 = m.prob(v, alpha), m.prob(v2, alpha)
    witness = (v, v2, alpha)
    if p == 0 and p2 == 0:
        return EpsilonResult(
            scale=Fraction(1), ratio=Fraction(1), both_zero=True, witness=witness
        )
    if p == 0 or p2 == 0:
        return EpsilonResult(unbounded=True, witness=witness)
    ratio = max(p, p2) / min(p, p2)
    return EpsilonResult(scale=Fraction(1), ratio=ratio, witness=witness)


def _pair_scan(m: Mechanism, distance) -> EpsilonResult:
    """Max over unordered input pairs of ln(Pr[M(v) = o] / Pr[M(v') = o]) / d,
    with d = distance(v, v') (None skips the pair).

    For pure epsilon-DP over a finite output space the maximum over events S
    equals the maximum over single outputs (the mediant inequality: a sum's
    ratio never exceeds its largest term's), so single outputs suffice.  A
    witness event is the 1-tuple (o,).
    """
    best = EpsilonResult(
        scale=Fraction(1), ratio=Fraction(1), witness=(None, None, ())
    )
    for v, v2 in itertools.combinations(m.inputs, 2):
        d = distance(v, v2)
        if d is None:
            continue
        for o in m.outputs:
            a, b = m.prob(v, o), m.prob(v2, o)
            for hi, lo, pair in ((a, b, (v, v2)), (b, a, (v2, v))):
                if hi == 0:
                    continue
                if lo == 0:
                    return EpsilonResult(unbounded=True, witness=(*pair, (o,)))
                ratio = hi / lo
                if ratio == 1:
                    continue
                if d == 0:
                    return EpsilonResult(unbounded=True, witness=(*pair, (o,)))
                if ratio < 1:  # a negative candidate never beats best >= 0
                    continue
                cand = EpsilonResult(scale=1 / d, ratio=ratio, witness=(*pair, (o,)))
                if compare(cand, best) > 0:
                    best = cand
    return best


def _unit_scan(m: Mechanism, shared: bool) -> EpsilonResult:
    """What `_pair_scan` returns when every counted pair is at distance 1,
    in O(inputs * outputs).  The counted pairs are every pair, or, when
    `shared`, those sharing a positive-probability output.

    The result is unbounded iff some counted pair has different supports;
    the first such pair is, at some output o, the first input positive at
    o paired with the first later one whose support differs.  Otherwise
    the inputs positive at o are counted against each other (supports
    that meet are equal), so o's best ratio is max p / min p over them,
    and the pair scan's first (pair, output) reaching the overall best
    pairs the first input at either extreme with the first at the other.
    """
    rows = [[m.prob(v, o) for o in m.outputs] for v in m.inputs]
    kinds: dict[tuple, int] = {}
    kind = [kinds.setdefault(tuple(p > 0 for p in row), len(kinds)) for row in rows]
    columns = range(len(m.outputs))
    positive = [[i for i, row in enumerate(rows) if row[k] > 0] for k in columns]
    groups = positive if shared else [range(len(rows))]
    first = min(
        ((g[0], j) for g in groups for j in g if kind[j] != kind[g[0]]), default=None
    )
    if first is not None:
        i, j = first
        k = next(k for k in columns if (rows[i][k] > 0) != (rows[j][k] > 0))
        pos, zero = (i, j) if rows[i][k] > 0 else (j, i)
        return EpsilonResult(
            unbounded=True, witness=(m.inputs[pos], m.inputs[zero], (m.outputs[k],))
        )
    found = []  # (i, j, k, ratio, index at max, index at min)
    for k, at in enumerate(positive):
        if not at:
            continue
        col = [(rows[i][k], i) for i in at]
        # the first index at each extreme: max keeps the first of equals
        (lo, a), (hi, b) = min(col), max(col, key=lambda c: c[0])
        if hi != lo:
            found.append((min(a, b), max(a, b), k, hi / lo, b, a))
    if not found:
        return EpsilonResult(
            scale=Fraction(1), ratio=Fraction(1), witness=(None, None, ())
        )
    top = max(f[3] for f in found)
    _, _, k, ratio, b, a = min(f for f in found if f[3] == top)
    return EpsilonResult(
        scale=Fraction(1),
        ratio=ratio,
        witness=(m.inputs[b], m.inputs[a], (m.outputs[k],)),
    )


def min_ldp_epsilon(m: Mechanism) -> EpsilonResult:
    """Minimal epsilon for the local-privacy bound over every input pair
    sharing a positive-probability output and every output event."""
    return _unit_scan(m, shared=True)


class Adjacency:
    """A symmetric nonnegative distance over mechanism inputs; None marks an
    undefined (uncomparable) pair."""

    def distance(self, a, b) -> Fraction | None:
        raise NotImplementedError


def _as_cells(x) -> tuple:
    """A table row's cells, a tuple of cells, or an opaque name as one atom."""
    if isinstance(x, tuple):
        return x
    cells = getattr(x, "cells", None)
    return (Atom(str(x)),) if cells is None else cells


class HammingAdjacency(Adjacency, Record):
    """Generalized Hamming count; opaque atoms count as 1-tuples."""

    def distance(self, a, b) -> Fraction | None:
        from .metrics import hamming

        d = hamming(_as_cells(a), _as_cells(b))
        return None if d is None else Fraction(d)


class RhoAdjacency(Adjacency, Record):
    """Value-wise tuple distance rho under the selected interval mode."""

    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET
    taxonomies: Mapping[str, TaxonomyTree] | None = None
    normalizer: Fraction | Mapping[int, Fraction] | None = None

    def distance(self, a, b) -> Fraction | None:
        from .metrics import rho

        return rho(
            [_as_cells(a)],
            [_as_cells(b)],
            self.mode,
            taxonomies=self.taxonomies,
            normalizer=self.normalizer,
        )


def min_dp_epsilon(m: Mechanism, adjacency: Adjacency) -> EpsilonResult:
    """Minimal epsilon with Prob[M(D) in S] <= e^(eps*dist(D,D')) * Prob[M(D') in S]
    for every unordered input pair and every output event.  Hamming over
    non-empty names puts every pair at distance 1 (an empty name is no
    atom, and raises when the pair scan reaches it)."""
    if isinstance(adjacency, HammingAdjacency) and all(
        type(v) is str and v for v in m.inputs
    ):
        return _unit_scan(m, shared=False)

    def distance(v, v2) -> Fraction:
        d = adjacency.distance(v, v2)
        if d is None:
            raise PrivacyError(f"adjacency undefined on pair ({v!r}, {v2!r})")
        return d

    return _pair_scan(m, distance)


def min_scaled_indist_epsilon(
    m: Mechanism, v, v2, alpha, dist: Fraction
) -> EpsilonResult:
    """Minimal epsilon with both bounds p <= e^(eps*dist) * p'; the core of
    the distance-scaled indistinguishability notions."""
    base = min_indist_epsilon(m, v, v2, alpha)
    if base.unbounded or base.ratio == 1:
        return base
    if dist == 0:
        return EpsilonResult(unbounded=True, witness=base.witness)
    return EpsilonResult(scale=Fraction(1) / dist, ratio=base.ratio, witness=base.witness)


def min_eps_rho_indist(
    m: Mechanism,
    v,
    v2,
    alpha,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    tuples: tuple | None = None,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> EpsilonResult:
    """|ln(p/p')| / rho(t,t'): the rho-scaled minimal epsilon.  `tuples`
    supplies the value tuples when the mechanism inputs are opaque keys."""
    t, t2 = tuples if tuples is not None else (v, v2)
    d = RhoAdjacency(mode, taxonomies, normalizer).distance(t, t2)
    if d is None:
        raise PrivacyError("tuples are uncomparable; rho is undefined")
    return min_scaled_indist_epsilon(m, v, v2, alpha, d)


def min_eps_hamming_indist(
    m: Mechanism, v, v2, alpha, *, tuples: tuple | None = None
) -> EpsilonResult:
    """|ln(p/p')| / d_h(t,t'): the Hamming-scaled counterpart."""
    t, t2 = tuples if tuples is not None else (v, v2)
    d = HammingAdjacency().distance(t, t2)
    if d is None:
        raise PrivacyError("tuples are uncomparable; the Hamming count is undefined")
    return min_scaled_indist_epsilon(m, v, v2, alpha, d)


def parse_epsilon(text: str):
    """Parse an epsilon literal: `ln(a/b)`, `(c/d)*ln(a/b)`, a fraction, or
    a decimal.  The ln forms return EpsilonResult, the others Fraction."""
    text = text.strip().replace(" ", "")
    m = re.fullmatch(r"(?:\((-?\d+/\d+|-?\d+)\)\*)?ln\((\d+(?:/\d+)?)\)", text)
    try:
        if m:
            scale = parse_fraction(m.group(1) or 1)
            ratio = parse_fraction(m.group(2))
        else:
            frac = parse_fraction(text)
    except ValueError as exc:
        raise PrivacyError(f"cannot parse epsilon: {exc}") from None
    if m:
        if ratio < 1 or scale < 0:
            raise PrivacyError(f"epsilon {text!r} is negative")
        return EpsilonResult(scale=scale, ratio=ratio)
    if frac < 0:
        raise PrivacyError("epsilon must be nonnegative")
    if frac > sys.float_info.max:
        raise PrivacyError(f"epsilon {text!r} is too large")
    return frac
