"""The indistinguishability calculus over mechanisms: the exact order on
epsilons, the scan over input pairs, rho adjacency, the per-output and
distance-scaled indistinguishability bounds, and the classes of a state's
epsilon-equivalent branch labels.

One comparator, `compare`, orders epsilons (scale*ln(ratio)), unbounded
ones and plain rationals exactly, and refuses two that agree to
`MAX_LN_DIGITS` significant digits.  `privacy` imports this module only
at call time, so a Hamming `dp-check` over named inputs never loads it.
"""

from __future__ import annotations

import decimal
import itertools
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .privacy import EpsilonResult, HammingAdjacency, Mechanism, _as_cells
from .records import InputError, Record, parse_fraction
from .values import IntervalMeasureMode

if TYPE_CHECKING:
    from .lts import Dltts, Label


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
    values that agree to `MAX_LN_DIGITS` digits raise InputError."""
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
    raise InputError(
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


class RhoAdjacency(Record):
    """Value-wise tuple distance rho under the selected interval mode."""

    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET
    normalizer: Fraction | Mapping[int, Fraction] | None = None

    def distance(self, a, b) -> Fraction | None:
        from .metrics import rho

        return rho(
            [_as_cells(a)],
            [_as_cells(b)],
            self.mode,
            normalizer=self.normalizer,
        )


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
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> EpsilonResult:
    """|ln(p/p')| / rho(t,t'): the rho-scaled minimal epsilon.  `tuples`
    supplies the value tuples when the mechanism inputs are opaque keys."""
    t, t2 = tuples if tuples is not None else (v, v2)
    d = RhoAdjacency(mode, normalizer).distance(t, t2)
    if d is None:
        raise InputError("tuples are uncomparable; rho is undefined")
    return min_scaled_indist_epsilon(m, v, v2, alpha, d)


def min_eps_hamming_indist(
    m: Mechanism, v, v2, alpha, *, tuples: tuple | None = None
) -> EpsilonResult:
    """|ln(p/p')| / d_h(t,t'): the Hamming-scaled counterpart."""
    t, t2 = tuples if tuples is not None else (v, v2)
    d = HammingAdjacency().distance(t, t2)
    if d is None:
        raise InputError("tuples are uncomparable; the Hamming count is undefined")
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
    except InputError as exc:
        raise InputError(f"cannot parse epsilon: {exc}") from None
    if m:
        if ratio < 1 or scale < 0:
            raise InputError(f"epsilon {text!r} is negative")
        return EpsilonResult(scale=scale, ratio=ratio)
    if frac < 0:
        raise InputError("epsilon must be nonnegative")
    if frac > sys.float_info.max:
        raise InputError(f"epsilon {text!r} is too large")
    return frac


def epsilon_equivalent_labels(
    dltts: Dltts,
    state: str,
    mechanism: Mechanism,
    epsilon,
    *,
    alpha=None,
) -> list[frozenset[Label]]:
    """Partition the outgoing branch labels at `state` into classes of
    pairwise epsilon-indistinguishable query instances.

    Each label maps to a mechanism input: its single line id, else its
    text.  Pairwise indistinguishability is not transitive, so classes are
    the connected components of the pairwise relation, in the order of
    their first label.
    """
    labels = list(dict.fromkeys(
        b.label for t in dltts.outgoing(state) for b in t.branches
    ))
    if not labels:
        return []

    def instance(label: Label):
        keys = []
        if len(label.lines) == 1:
            keys.append(next(iter(label.lines)))
        if label.text:
            keys.append(label.text)
        for k in keys:
            if k in mechanism.inputs:
                return k
        raise InputError(f"no mechanism instance for label {label}")

    instances = {label: instance(label) for label in labels}
    if alpha is None:
        common = set(mechanism.outputs).intersection(
            *map(mechanism.support, instances.values())
        )
        if len(common) != 1:
            raise InputError("output alpha is ambiguous; pass it explicitly")
        (alpha,) = common

    # |ln p - ln p'| <= epsilon relates points of a line, so its connected
    # components are the runs of the labels sorted by p whose neighbours
    # are related
    ranked = sorted(labels, key=lambda label: mechanism.prob(instances[label], alpha))
    run_of = {ranked[0]: 0}
    for a, b in zip(ranked, ranked[1:]):
        run_of[b] = run_of[a] + (not is_eps_indistinguishable(
            mechanism, instances[a], instances[b], alpha, epsilon
        ))
    groups: dict[int, list[Label]] = {}
    for label in labels:
        groups.setdefault(run_of[label], []).append(label)
    return [frozenset(g) for g in groups.values()]
