from __future__ import annotations

import decimal
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from privtrace.metrics import IntervalMeasureMode, hamming, rho
from privtrace.indist import (
    MAX_LN_DIGITS,
    RhoAdjacency,
    _bounds,
    _pair_scan,
    compare,
    is_eps_indistinguishable,
    min_eps_hamming_indist,
    min_eps_rho_indist,
    min_indist_epsilon,
    min_scaled_indist_epsilon,
    parse_epsilon,
)
from privtrace.privacy import (
    EpsilonResult,
    HammingAdjacency,
    Mechanism,
    min_dp_epsilon,
    min_ldp_epsilon,
)
from privtrace.records import InputError
from privtrace.values import Atom, Number
from reference import randomized_response

PC = IntervalMeasureMode.PAPER_COMPAT
IS = IntervalMeasureMode.INTEGER_SET


@pytest.fixture(scope="module")
def viral():
    return Mechanism.from_rows(
        "viral_query",
        {
            "l4": {"Viral-Infection": "1/3", "no-answer": "2/3"},
            "l5": {"Viral-Infection": "2/3", "no-answer": "1/3"},
        },
    )


def test_mechanism_rows_must_sum_to_one():
    with pytest.raises(InputError):
        Mechanism.from_rows("bad", {"a": {"x": "1/2", "y": "1/3"}})


def test_min_indist_published_pair(viral):
    res = min_indist_epsilon(viral, "l4", "l5", "Viral-Infection")
    assert res.scale == 1 and res.ratio == 2
    assert res.exact_str() == "ln(2/1)"
    assert math.isclose(res.value, math.log(2), abs_tol=1e-12)


def test_min_indist_identity_and_ratio():
    m = Mechanism.from_rows(
        "m", {"a": {"x": "1/4", "y": "3/4"}, "b": {"x": "3/4", "y": "1/4"}}
    )
    assert min_indist_epsilon(m, "a", "a", "x").ratio == 1
    res = min_indist_epsilon(m, "a", "b", "x")
    assert res.ratio == 3 and res.scale == 1


def test_min_indist_symmetric(viral):
    a = min_indist_epsilon(viral, "l4", "l5", "Viral-Infection")
    b = min_indist_epsilon(viral, "l5", "l4", "Viral-Infection")
    assert (a.scale, a.ratio, a.unbounded) == (b.scale, b.ratio, b.unbounded)


def test_min_indist_zero_probability_cases():
    m = Mechanism.from_rows(
        "m", {"a": {"x": "1"}, "b": {"y": "1"}}, outputs=("x", "y", "z")
    )
    res = min_indist_epsilon(m, "a", "b", "y")
    assert res.unbounded
    both = min_indist_epsilon(m, "a", "b", "z")
    assert both.both_zero and both.value == 0


def test_is_eps_indistinguishable_examples(viral):
    ln2 = parse_epsilon("ln(2)")
    assert is_eps_indistinguishable(viral, "l4", "l5", "Viral-Infection", ln2)
    assert not is_eps_indistinguishable(viral, "l4", "l5", "Viral-Infection", 0.6)
    assert is_eps_indistinguishable(viral, "l4", "l4", "Viral-Infection", 0.0)


@given(st.fractions(min_value=0, max_value=3), st.fractions(min_value=0, max_value=2))
def test_is_eps_monotone_in_epsilon(eps, bump):
    m = Mechanism.from_rows(
        "m", {"a": {"x": "1/3", "y": "2/3"}, "b": {"x": "2/3", "y": "1/3"}}
    )
    if is_eps_indistinguishable(m, "a", "b", "x", float(eps)):
        assert is_eps_indistinguishable(m, "a", "b", "x", float(eps + bump))


def _random_log(rng: random.Random) -> EpsilonResult:
    """A small s*ln(r) with s >= 0 and r >= 1, sometimes degenerate (no
    ratio, ratio 1, scale 0) or unbounded."""
    roll = rng.random()
    if roll < 0.05:
        return EpsilonResult(unbounded=True)
    if roll < 0.1:
        return EpsilonResult()
    num = rng.randint(1, 9)
    ratio = F(num, rng.randint(1, num))
    return EpsilonResult(scale=F(rng.randint(0, 6), rng.randint(1, 6)), ratio=ratio)


def _equal_logs(rng: random.Random) -> tuple[EpsilonResult, EpsilonResult]:
    """m*ln(c) written as (m/p)*ln(c**p) and (m/q)*ln(c**q)."""
    c = F(rng.randint(3, 7), rng.choice((1, 2)))
    m = F(rng.randint(1, 7), rng.randint(1, 7))
    p, q = rng.randint(1, 7), rng.randint(1, 7)
    return (EpsilonResult(scale=m / p, ratio=c**p),
            EpsilonResult(scale=m / q, ratio=c**q))


def test_compare_matches_the_big_power_order():
    rng = random.Random(11)
    for _ in range(4000):
        if rng.random() < 0.2:
            a, b = _equal_logs(rng)
            assert compare(a, b) == compare(b, a) == 0, (a, b)
        else:
            a, b = _random_log(rng), _random_log(rng)
        want = _exceeds(a, b) - _exceeds(b, a)
        assert compare(a, b) == want, (a, b)
        assert compare(b, a) == -want, (a, b)


def test_compare_rational_against_log_matches_the_float_order():
    rng = random.Random(12)
    checked = 0
    for _ in range(4000):
        e = _random_log(rng)
        q = F(rng.randint(0, 40), rng.randint(1, 20))
        want = (e.value > q) - (e.value < q)
        if e.unbounded or abs(e.value - float(q)) > 1e-9 * max(e.value, float(q)):
            assert compare(e, q) == want, (e, q)
            assert compare(q, e) == -want, (e, q)
            checked += 1
    assert checked > 3500


def test_compare_signed_logs_match_the_float_order():
    """Ratios below 1 give negative values, as the pair scan's reversed
    candidates do."""
    rng = random.Random(13)
    for _ in range(2000):
        a, b = (
            EpsilonResult(scale=F(rng.randint(0, 6), rng.randint(1, 6)),
                          ratio=F(rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(2)
        )
        if abs(a.value - b.value) > 1e-9 * max(abs(a.value), abs(b.value)):
            assert compare(a, b) == (a.value > b.value) - (a.value < b.value), (a, b)


def test_ln_bounds_contain_ln_at_a_far_higher_precision():
    """The bounds hold the value and are tight relative to it, for ratios
    next to 1 as well (1 + x with x down to 1e-60, where ln(1 + x) - x
    + x**2/2 is still above the reference's error)."""
    reference = decimal.Context(prec=300)
    rng = random.Random(14)
    for _ in range(300):
        num = rng.randint(2, 10**rng.randint(1, 30))
        r = F(num, rng.randint(1, num - 1))
        near_one = 1 + F(1, rng.randint(2, 10**rng.randint(1, 60)))
        s = F(rng.randint(-5, 5) or 1, rng.randint(1, 5))
        for ratio in (r, near_one):
            true = s * F(reference.ln(reference.divide(ratio.numerator, ratio.denominator)))
            for prec in (5, 10, 20):
                lo, hi = _bounds(s, ratio, prec)
                assert lo < true < hi, (s, ratio, prec)
                assert hi - lo < abs(true) * F(10) ** (3 - prec), (s, ratio, prec)


def test_compare_separates_close_logs_and_large_exponents():
    ln2 = EpsilonResult(scale=F(1), ratio=F(2))
    # ln(2**40 + 1) / 40 exceeds ln 2 by about 2**-40 / 40
    close = EpsilonResult(scale=F(1, 40), ratio=F(2**40 + 1))
    assert compare(close, ln2) == 1 and compare(ln2, close) == -1
    assert compare(EpsilonResult(scale=F(1, 40), ratio=F(2**40)), ln2) == 0
    tiny = EpsilonResult(scale=F(1, 100000007), ratio=F(2))
    assert compare(tiny, EpsilonResult(scale=F(1), ratio=F(3, 2))) == -1
    assert compare(EpsilonResult(scale=F(100000007), ratio=F(2)), F(10**7)) == 1
    assert compare(EpsilonResult(unbounded=True), EpsilonResult(unbounded=True)) == 0
    assert compare(EpsilonResult(unbounded=True), F(10**9)) == 1


def test_compare_refuses_values_that_agree_to_the_digit_bound():
    """10**4000 * ln(1 + 10**-4000) is 1 - 5e-4001: no ln to
    `MAX_LN_DIGITS` digits parts it from 1."""
    big = EpsilonResult(scale=F(10**4000), ratio=F(10**4000 + 1, 10**4000))
    start = time.process_time()
    with pytest.raises(InputError, match=rf"agree to {MAX_LN_DIGITS} digits"):
        compare(big, F(1))
    assert time.process_time() - start < 5
    assert compare(big, F(999, 1000)) == 1 and compare(F(1001, 1000), big) == 1


def test_value_of_a_scale_past_the_float_range():
    """Where float(scale) overflows, the value comes from the exact bounds:
    a finite product reads as a float, one past the float range as inf."""
    big = EpsilonResult(scale=F(10**400), ratio=1 + F(3, 10**400))
    assert big.value == 3.0 and str(big).endswith(" ≈ 3")
    assert EpsilonResult(scale=F(10**400), ratio=F(2)).value == math.inf
    assert EpsilonResult(scale=F(10**300), ratio=F(2)).value == 10**300 * math.log(2)


def test_rr_full_table():
    full, marginal = randomized_response()
    assert full.prob(("True", "H", "H"), "True") == 1
    assert full.prob(("False", "T", "T"), "False") == 1
    assert full.prob(("False", "T", "H"), "True") == 1
    assert marginal.prob("True", "True") == F(3, 4)
    assert marginal.prob("True", "False") == F(1, 4)
    assert marginal.prob("False", "True") == F(1, 4)


def test_rr_marginal_matches_coin_average():
    full, marginal = randomized_response()
    for x in ("True", "False"):
        for out in ("True", "False"):
            avg = sum(
                full.prob((x, f1, f2), out)
                for f1 in ("H", "T")
                for f2 in ("H", "T")
            ) / 4
            assert avg == marginal.prob(x, out)


def test_min_ldp_rr_is_ln3():
    res = min_ldp_epsilon(randomized_response()[1])
    assert res.scale == 1 and res.ratio == 3
    assert res.exact_str() == "ln(3/1)"


def test_min_ldp_trivial_mechanisms():
    const = Mechanism.from_rows("c", {"a": {"x": "1"}, "b": {"x": "1"}})
    assert min_ldp_epsilon(const).ratio == 1
    flat = Mechanism.from_rows(
        "f", {"a": {"x": "1/2", "y": "1/2"}, "b": {"x": "1/2", "y": "1/2"}}
    )
    assert min_ldp_epsilon(flat).value == 0


def test_min_ldp_unbounded():
    m = Mechanism.from_rows(
        "m", {"a": {"x": "1"}, "b": {"x": "1/2", "y": "1/2"}}
    )
    assert min_ldp_epsilon(m).unbounded


def ldp_oracle(m: Mechanism):
    """Independent brute force: recursive subset enumeration, max ratio."""

    def subsets(outs):
        if not outs:
            yield []
            return
        for rest in subsets(outs[1:]):
            yield rest
            yield [outs[0]] + rest

    best, unbounded = F(1), False
    for v, v2 in combinations(m.inputs, 2):
        if not set(m.support(v)) & set(m.support(v2)):
            continue
        for S in subsets(list(m.outputs)):
            if not S:
                continue
            a = sum((m.prob(v, o) for o in S), F(0))
            b = sum((m.prob(v2, o) for o in S), F(0))
            for hi, lo in ((a, b), (b, a)):
                if hi > 0 and lo == 0:
                    unbounded = True
                elif hi > 0:
                    best = max(best, hi / lo)
    return best, unbounded


def test_min_ldp_agrees_with_oracle_on_rr_and_viral(viral):
    for m in (randomized_response()[1], viral):
        res = min_ldp_epsilon(m)
        best, unbounded = ldp_oracle(m)
        assert res.unbounded == unbounded
        if not unbounded:
            assert res.ratio == best


def test_min_dp_rr_hamming_is_ln3():
    res = min_dp_epsilon(randomized_response()[1], HammingAdjacency())
    assert res.scale == 1 and res.ratio == 3


def test_min_dp_single_input_is_zero():
    m = Mechanism.from_rows("one", {"a": {"x": "1/2", "y": "1/2"}})
    assert min_dp_epsilon(m, HammingAdjacency()).value == 0


def test_min_dp_undefined_adjacency_errors():
    m = Mechanism.from_rows("m", {"a": {"x": "1"}, "b": {"x": "1"}})
    with pytest.raises(InputError):
        min_dp_epsilon(m, TableAdjacency([]))


def _exceeds(a: EpsilonResult, b: EpsilonResult) -> bool:
    """a.value > b.value by integer cross-powers: the big-power order that
    `compare` replaced, kept as its oracle on small exponents."""
    if a.unbounded:
        return not b.unbounded
    if b.unbounded:
        return False
    ra = a.ratio if a.ratio is not None else F(1)
    rb = b.ratio if b.ratio is not None else F(1)
    sa = a.scale if a.scale is not None else F(1)
    sb = b.scale if b.scale is not None else F(1)
    if ra == 1 or sa == 0:
        return False
    if rb == 1 or sb == 0:
        return True
    # sa*ln(ra) > sb*ln(rb)  <=>  ra^(sa_n*sb_d) > rb^(sb_n*sa_d)
    return ra ** (sa.numerator * sb.denominator) > rb ** (sb.numerator * sa.denominator)


# Exhaustive scans over every output event: the differential oracle for the
# pointwise scans behind min_ldp_epsilon and min_dp_epsilon (the pair scan,
# and the one pass per output at unit distance).


def _subsets(outputs):
    for r in range(1, len(outputs) + 1):
        yield from combinations(outputs, r)


def exhaustive_ldp(m: Mechanism) -> EpsilonResult:
    best = EpsilonResult(scale=F(1), ratio=F(1), witness=(None, None, ()))
    for v, v2 in combinations(m.inputs, 2):
        if not set(m.support(v)) & set(m.support(v2)):
            continue
        for S in _subsets(m.outputs):
            a, b = m.event_prob(v, S), m.event_prob(v2, S)
            for hi, lo, pair in ((a, b, (v, v2)), (b, a, (v2, v))):
                if hi == 0:
                    continue
                if lo == 0:
                    return EpsilonResult(unbounded=True, witness=(*pair, S))
                cand = EpsilonResult(scale=F(1), ratio=hi / lo, witness=(*pair, S))
                if _exceeds(cand, best):
                    best = cand
    return best


def exhaustive_dp(m: Mechanism, adjacency) -> EpsilonResult:
    best = EpsilonResult(scale=F(1), ratio=F(1), witness=(None, None, ()))
    for v, v2 in combinations(m.inputs, 2):
        d = adjacency.distance(v, v2)
        if d is None:
            raise InputError(f"adjacency undefined on pair ({v!r}, {v2!r})")
        for S in _subsets(m.outputs):
            a, b = m.event_prob(v, S), m.event_prob(v2, S)
            for hi, lo, pair in ((a, b, (v, v2)), (b, a, (v2, v))):
                if hi == 0:
                    continue
                if lo == 0:
                    return EpsilonResult(unbounded=True, witness=(*pair, S))
                ratio = hi / lo
                if ratio == 1:
                    continue
                if d == 0:
                    return EpsilonResult(unbounded=True, witness=(*pair, S))
                cand = EpsilonResult(scale=1 / d, ratio=ratio, witness=(*pair, S))
                if _exceeds(cand, best):
                    best = cand
    return best


def _random_mechanism(rng: random.Random) -> Mechanism:
    """1-4 inputs (Atom pairs, so Hamming distances are 1 or 2) over 1-4
    outputs; a third of the mechanisms have no zero weights, the rest have
    zero-probability asymmetries at varying rates.  Small weights make
    tied ratios common."""
    n_in, n_out = rng.randint(1, 4), rng.randint(1, 4)
    inputs = rng.sample(
        [(Atom(x), Atom(y)) for x in "ab" for y in "xyz"], n_in
    )
    outputs = tuple(f"o{i}" for i in range(n_out))
    zero_rate = rng.choice((0, 0.1, 0.4))
    rows = {}
    for v in inputs:
        weights = [
            0 if rng.random() < zero_rate else rng.randint(1, 4) for _ in outputs
        ]
        if not any(weights):
            weights[rng.randrange(n_out)] = 1
        total = sum(weights)
        rows[v] = {o: F(w, total) for o, w in zip(outputs, weights) if w}
    return Mechanism.from_rows("m", rows, outputs=outputs)


class TableAdjacency:
    """An explicit symmetric distance table over input pairs; a pair it
    leaves out is undefined."""

    def __init__(self, pairs) -> None:
        self.entries = {frozenset((a, b)): F(d) for a, b, d in pairs}

    def distance(self, a, b) -> F | None:
        if a == b:
            return F(0)
        return self.entries.get(frozenset((a, b)))


def _random_table(rng: random.Random, inputs) -> TableAdjacency:
    """Distances 0, fractional or whole, and sometimes missing."""
    pairs = [
        (a, b, rng.choice((0, F(1, 2), F(2, 3), 1, 2)))
        for a, b in combinations(inputs, 2)
        if rng.random() > 0.05
    ]
    return TableAdjacency(pairs)


def _outcome(scan, *args):
    try:
        res = scan(*args)
    except InputError as exc:
        return ("error", str(exc))
    return (str(res), res.exact_str(), res.witness_str(), res.unbounded)


def test_pair_scan_matches_exhaustive_subset_scan():
    rng = random.Random(2)
    for _ in range(2000):
        m = _random_mechanism(rng)
        assert _outcome(min_ldp_epsilon, m) == _outcome(exhaustive_ldp, m)
        adj = rng.choice((HammingAdjacency(), _random_table(rng, m.inputs)))
        assert _outcome(min_dp_epsilon, m, adj) == _outcome(exhaustive_dp, m, adj)


def _named_mechanism(rng: random.Random) -> Mechanism:
    """1-8 named inputs, listed out of name order, over 1-4 outputs.  A
    third of the mechanisms have no zero weights, a third have scattered
    zeros, and a third split the outputs into blocks with each input
    spreading its weight over one block (disjoint support classes, which
    LDP never compares), sometimes with one stray output.  Weights 1-3
    make extremes tied across outputs common."""
    n_in, n_out = rng.randint(1, 8), rng.randint(1, 4)
    inputs = rng.sample([f"v{i}" for i in range(8)], n_in)
    outputs = tuple(f"o{k}" for k in range(n_out))
    shape = rng.choice(("dense", "zeros", "classes"))
    cuts = sorted(rng.sample(range(1, n_out), rng.randint(0, n_out - 1)))
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n_out])]
    rows = {}
    for v in inputs:
        if shape == "classes":
            allowed = set(rng.choice(blocks))
            if rng.random() < 0.15:
                allowed.add(rng.randrange(n_out))
        else:
            allowed = {k for k in range(n_out)
                       if shape == "dense" or rng.random() > 0.3}
        weights = [rng.randint(1, 3) if k in allowed else 0 for k in range(n_out)]
        if not any(weights):
            weights[rng.randrange(n_out)] = 1
        total = sum(weights)
        rows[v] = {o: F(w, total) for o, w in zip(outputs, weights) if w}
    return Mechanism.from_rows("m", rows, outputs=outputs)


def _ldp_pair_scan(m: Mechanism) -> EpsilonResult:
    support = {v: set(m.support(v)) for v in m.inputs}
    return _pair_scan(m, lambda v, v2: F(1) if support[v] & support[v2] else None)


def _best_ratios(m: Mechanism) -> list[F]:
    """max p / min p over the inputs positive at each output."""
    ratios = []
    for o in m.outputs:
        ps = [m.prob(v, o) for v in m.inputs if m.prob(v, o) > 0]
        if ps:
            ratios.append(max(ps) / min(ps))
    return ratios


def test_unit_scan_matches_the_pair_scan_and_the_subset_scan():
    """LDP, and Hamming DP over names, take the O(inputs * outputs) scan;
    every field of its result must be the pair scan's and the exhaustive
    subset scan's."""
    rng = random.Random(12)
    hamming = HammingAdjacency()
    seen = dict.fromkeys(("late unbounded pair", "tied best outputs",
                          "classes bounded"), 0)
    for _ in range(2000):
        m = _named_mechanism(rng)
        ldp = _outcome(min_ldp_epsilon, m)
        dp = _outcome(min_dp_epsilon, m, hamming)
        assert ldp == _outcome(_ldp_pair_scan, m)
        assert dp == _outcome(_pair_scan, m, hamming.distance)
        assert ldp == _outcome(exhaustive_ldp, m)
        assert dp == _outcome(exhaustive_dp, m, hamming)
        res = min_dp_epsilon(m, hamming)
        if res.unbounded and set(res.witness[:2]) != set(m.inputs[:2]):
            seen["late unbounded pair"] += 1
        if not res.unbounded and res.ratio > 1:
            seen["tied best outputs"] += _best_ratios(m).count(res.ratio) > 1
        res = min_ldp_epsilon(m)
        kinds = {m.support(v) for v in m.inputs}
        if not res.unbounded and res.ratio > 1 and len(kinds) > 1:
            seen["classes bounded"] += 1
    assert min(seen.values()) >= 25, seen


def test_unit_scans_grow_as_inputs_times_outputs():
    """40 inputs x 400 outputs: 780 pairs, which the pair scan took ~7.5 s
    over (CPython 3.11, 2-vCPU Xeon VM); one pass per output takes a
    small fraction of the bound."""
    rng = random.Random(40)
    outputs = [f"o{k}" for k in range(400)]
    rows = {}
    for i in range(40):
        weights = [rng.randint(1, 1000) for _ in outputs]
        total = sum(weights)
        rows[f"v{i}"] = {o: F(w, total) for o, w in zip(outputs, weights)}
    m = Mechanism.from_rows("wide", rows, outputs=outputs)
    start = time.process_time()
    ldp, dp = min_ldp_epsilon(m), min_dp_epsilon(m, HammingAdjacency())
    assert time.process_time() - start < 2.0
    assert ldp == dp and ldp.ratio > 1


def test_min_dp_rho_published_pair(published, viral):
    l4, l5 = published.row("l4"), published.row("l5")
    m = Mechanism.from_rows(
        "viral_rows",
        {
            l4.cells: {"Viral-Infection": "1/3", "no-answer": "2/3"},
            l5.cells: {"Viral-Infection": "2/3", "no-answer": "1/3"},
        },
    )
    res = min_dp_epsilon(m, RhoAdjacency(PC))
    assert res.scale == F(20, 39) and res.ratio == 2


def test_min_eps_rho_indist_published(published, viral):
    tuples = (published.row("l4"), published.row("l5"))
    res = min_eps_rho_indist(
        viral, "l4", "l5", "Viral-Infection", PC, tuples=tuples
    )
    assert res.scale == F(20, 39) and res.ratio == 2
    assert math.isclose(res.value, F(20, 39) * math.log(2), abs_tol=1e-9)
    h = min_eps_hamming_indist(viral, "l4", "l5", "Viral-Infection", tuples=tuples)
    assert h.scale == F(1, 2) and h.ratio == 2
    same = min_eps_rho_indist(
        viral, "l4", "l4", "Viral-Infection", PC,
        tuples=(tuples[0], tuples[0]),
    )
    assert same.value == 0


def test_min_eps_rho_uncomparable_raises(viral):
    from privtrace.values import Atom, Number

    with pytest.raises(InputError):
        min_eps_rho_indist(
            viral, "l4", "l5", "Viral-Infection", IS,
            tuples=((Atom("a"),), (Number(1),)),
        )


def test_scaled_indist_at_distance_zero_or_undefined(viral):
    """Inputs told apart at distance 0 have no finite epsilon, and tuples
    with no Hamming count are refused."""
    res = min_scaled_indist_epsilon(viral, "l4", "l5", "Viral-Infection", F(0))
    assert res.unbounded and res.witness == ("l4", "l5", "Viral-Infection")
    with pytest.raises(InputError, match="the Hamming count is undefined"):
        min_eps_hamming_indist(viral, "l4", "l5", "Viral-Infection",
                               tuples=((Atom("a"),), (Number(1),)))


def test_rho_never_exceeds_hamming_on_published(published):
    rows = list(published.rows)
    for a, b in combinations(rows, 2):
        dh = hamming(a, b)
        r = rho([a], [b], IS)
        assert r is not None and dh is not None
        assert r <= dh


def test_dp_bound_finer_under_rho_than_hamming(published):
    # rho <= d_h per pair, so the minimal epsilon scaled by rho dominates
    # the Hamming-scaled one: satisfying the rho bound implies the other
    rows = {r.line_id: r for r in published.rows}
    m = Mechanism.from_rows(
        "rows",
        {
            rows["l4"].cells: {"VI": "1/3", "no": "2/3"},
            rows["l5"].cells: {"VI": "2/3", "no": "1/3"},
            rows["l2"].cells: {"VI": "1/6", "no": "5/6"},
        },
    )
    dp_rho = min_dp_epsilon(m, RhoAdjacency(IS))
    dp_ham = min_dp_epsilon(m, HammingAdjacency())
    assert dp_rho.value >= dp_ham.value


def test_rho_indist_implies_hamming_indist(published, viral):
    # scaled by a smaller distance means a larger minimal epsilon, hence any
    # epsilon satisfying the rho bound satisfies the hamming bound
    tuples = (published.row("l4"), published.row("l5"))
    r = min_eps_rho_indist(
        viral, "l4", "l5", "Viral-Infection", IS, tuples=tuples
    )
    h = min_eps_hamming_indist(viral, "l4", "l5", "Viral-Infection", tuples=tuples)
    assert h.value <= r.value


def test_parse_epsilon_forms():
    e = parse_epsilon("ln(2)")
    assert isinstance(e, EpsilonResult) and e.ratio == 2 and e.scale == 1
    e = parse_epsilon("(20/39)*ln(2)")
    assert e.scale == F(20, 39)
    assert parse_epsilon("0.6") == F(3, 5)
    assert parse_epsilon("3/4") == F(3, 4)
    for text in ("nope", "1e999999999", "1e4000", "ln(2/0)"):
        with pytest.raises(InputError):
            parse_epsilon(text)
    for text in ("ln(1/2)", "(-1/2)*ln(2)", "-1/2"):
        with pytest.raises(InputError, match="negative"):
            parse_epsilon(text)


def test_epsilon_result_rendering():
    r = EpsilonResult(scale=F(20, 39), ratio=F(2))
    assert r.exact_str() == "(20/39)*ln(2/1)"
    assert "0.355" in str(r)
    assert str(EpsilonResult(unbounded=True)) == "unbounded"
    assert EpsilonResult().exact_str() == "0"
