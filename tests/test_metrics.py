from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from privtrace.metrics import (
    IntervalMeasureMode,
    d_bar,
    d_eucl,
    d_nom,
    d_num,
    d_vector,
    d_wp,
    hamming,
    rho,
)
from privtrace.records import InputError
from privtrace.schema import Row
from privtrace.values import Atom, AtomSet, IntInterval, Number, Taxon, TaxonomyTree

from reference import type_compatible

IS = IntervalMeasureMode.INTEGER_SET
PC = IntervalMeasureMode.PAPER_COMPAT


def test_d_nom_examples():
    assert d_nom(AtomSet({"M"}), AtomSet({"M"})) == 0
    assert d_nom(Atom("Maths"), Atom("Physics")) == 1
    # exhaustive sets: delta = {a,c}, union = {a,b,c}
    assert d_nom(AtomSet({"a", "b"}), AtomSet({"b", "c"})) == F(2, 3)
    with pytest.raises(InputError, match=r"^not a nominal value: Number\("):
        d_nom(Atom("a"), Number(1))


def test_d_num_paper_compat_shared_endpoint():
    assert d_num(IntInterval(50, 60), IntInterval(40, 50), PC) == F(19, 20)


def test_d_num_integer_set_shared_endpoint():
    # enumeration: {40..60} has 21 points, intersection {50} has 1
    assert d_num(IntInterval(50, 60), IntInterval(40, 50), IS) == F(20, 21)


def test_d_num_identity_both_modes():
    for mode in (IS, PC):
        assert d_num(IntInterval(7, 7), IntInterval(7, 7), mode) == 0
        assert d_num(IntInterval(3, 9), IntInterval(3, 9), mode) == 0


def test_d_num_integer_set_matches_enumeration_oracle():
    import random

    rng = random.Random(7)
    for _ in range(300):
        a = sorted(rng.randint(0, 30) for _ in range(2))
        b = sorted(rng.randint(0, 30) for _ in range(2))
        va, vb = IntInterval(*a), IntInterval(*b)
        sa = set(range(a[0], a[1] + 1))
        sb = set(range(b[0], b[1] + 1))
        expected = F(len(sa ^ sb), len(sa | sb))
        assert d_num(va, vb, IS) == expected


def test_d_num_paper_compat_quirks():
    # distinct one-point intervals: zero-length union measure, distance 1
    assert d_num(IntInterval(3, 3), IntInterval(5, 5), PC) == 1
    # a documented PAPER_COMPAT artifact: distinct intervals at distance 0
    assert d_num(IntInterval(0, 10), IntInterval(0, 9), PC) == 0


def test_d_eucl_examples():
    assert d_eucl(Number(24), Number(24), F(100)) == 0
    assert d_eucl(Number(24), Number(53), F(100)) == F(29, 100)
    assert d_eucl(Number(0), Number(100), F(100)) == 1
    with pytest.raises(InputError):
        d_eucl(Number(0), Number(5), F(0))
    with pytest.raises(InputError):
        d_eucl(Number(0), Number(200), F(100))


@pytest.fixture(scope="module")
def tree():
    return TaxonomyTree(
        "ailment",
        "Ailment",
        {
            "Heart-Disease": "Ailment",
            "Cancer": "Ailment",
            "Viral-Infection": "Ailment",
            "Flu": "Viral-Infection",
            "CoVid": "Viral-Infection",
        },
    )


def test_d_wp_examples(tree):
    assert d_wp(tree, "Viral-Infection", "Viral-Infection") == 0
    # depths: Flu=CoVid=3, common ancestor Viral-Infection depth 2
    assert d_wp(tree, "Flu", "CoVid") == F(1, 3)
    # depths: Flu=3, Cancer=2, common ancestor is the root
    assert d_wp(tree, "Flu", "Cancer") == F(3, 5)
    # depths 2 and 2, common ancestor the root: 1 - 2/4
    assert d_wp(tree, "Heart-Disease", "Viral-Infection") == F(1, 2)


def test_d_wp_unknown_node(tree):
    with pytest.raises(ValueError, match="^node 'Plague' not in taxonomy ailment$"):
        d_wp(tree, "Flu", "Plague")


def _rows(published):
    return {r.line_id: r for r in published.rows}


def test_d_vector_published_l4_l5(published):
    rows = _rows(published)
    vec = d_vector(rows["l4"], rows["l5"], PC)
    assert vec == (F(19, 20), 0, 1, 0)
    assert d_vector(rows["l4"], rows["l4"], PC) == (0, 0, 0, 0)
    vec_is = d_vector(rows["l1"], rows["l3"], IS)
    # per-column direct evaluation; the last entry is d_wp of depth-2 nodes
    assert vec_is == (0, 0, 1, F(1, 2))


def test_d_bar_published(published):
    rows = _rows(published)
    assert d_bar(rows["l4"], rows["l5"], PC) == F(39, 20)
    assert d_bar(rows["l4"], rows["l5"], IS) == F(41, 21)
    assert d_bar(rows["l4"], rows["l4"], IS) == 0


def test_rho_published(published):
    rows = _rows(published)
    assert rho([rows["l4"]], [rows["l5"]], PC) == F(39, 20)
    S = [rows["l1"], rows["l2"]]
    assert rho(S, S, IS) == 0
    # brute force over the four pairs froze this minimum (pair l2/l5)
    assert rho(S, [rows["l4"], rows["l5"]], IS) == F(3, 2)


def test_rho_brute_force_agreement(published):
    rows = list(published.rows)
    S, S2 = rows[:3], rows[2:]
    expected = min(
        d_bar(a, b, IS) for a in S for b in S2
    )
    assert rho(S, S2, IS) == expected


def test_rho_uncomparable_is_none():
    assert rho([(Atom("a"),)], [(Number(1),)]) is None


def test_rho_symmetric_and_min_property(published):
    from privtrace.metrics import d_bar as _d_bar

    rows = list(published.rows)
    S, S2 = rows[:2], rows[3:]
    r = rho(S, S2, IS)
    assert r == rho(S2, S, IS)
    for a in S:
        for b in S2:
            assert r <= _d_bar(a, b, IS)


def test_hamming_partial_metric_cases():
    t1 = (IntInterval(1, 2), Atom("a"))
    assert hamming(t1, (IntInterval(2, 3), Atom("a"))) == 1
    assert hamming(t1, (IntInterval(2, 3), Atom("b"))) == 2
    assert hamming((Atom("bd"), Atom("a")), (IntInterval(2, 3), Atom("b"))) is None


def test_hamming_published_l4_l5(published):
    rows = _rows(published)
    assert hamming(rows["l4"], rows["l5"]) == 2


def test_domination_d_bar_below_hamming(published):
    rows = list(published.rows)
    for a in rows:
        for b in rows:
            dh = hamming(a, b)
            assert d_bar(a, b, IS) <= dh


sets = st.sets(st.sampled_from("abcdef"), min_size=1, max_size=6).map(AtomSet)


@given(sets, sets, sets)
def test_d_nom_metric_axioms(x, y, z):
    assert d_nom(x, x) == 0
    assert d_nom(x, y) == d_nom(y, x)
    assert 0 <= d_nom(x, y) <= 1
    if d_nom(x, y) == 0:
        assert x == y
    assert d_nom(x, z) <= d_nom(x, y) + d_nom(y, z)


intervals = st.tuples(
    st.integers(0, 100), st.integers(0, 100)
).map(lambda p: IntInterval(min(p), max(p)))


@given(intervals, intervals, intervals)
def test_d_num_integer_set_metric_axioms(x, y, z):
    assert d_num(x, x, IS) == 0
    assert d_num(x, y, IS) == d_num(y, x, IS)
    assert 0 <= d_num(x, y, IS) <= 1
    if d_num(x, y, IS) == 0:
        assert x == y
    assert d_num(x, z, IS) <= d_num(x, y, IS) + d_num(y, z, IS)


def test_d_vector_normalizer_per_position():
    """Each numerical position is measured against the D its number in
    the second operand holds; the first operand's D is never read."""
    t = (Number(0, F(9)), Atom("a"), Number(0))
    t2 = (Number(1, F(2)), Atom("a"), Number(1, F(4)))
    assert d_vector(t, t2) == (F(1, 2), 0, F(1, 4))
    with pytest.raises(InputError, match="^numerical cells need an explicit normalizer D$"):
        d_vector(t2, t)


def test_vector_requires_comparable():
    with pytest.raises(InputError):
        d_vector((Atom("a"),), (Number(1),))


def test_hamming_none_when_correspondence_none():
    t = (Atom("a"),)
    t2 = (Number(1),)
    assert type_compatible(t, t2) is None
    assert hamming(t, t2) is None


# -- the bounded rho against the whole-sum one it replaced --------------------

_TREES = (TaxonomyTree("t", "n0", {"n1": "n0", "n2": "n0", "n3": "n1", "n4": "n3"}),
          TaxonomyTree("u", "m0", {"m1": "m0", "m2": "m1"}))


def _random_tuple(rng, trees):
    """A tuple of 1-4 cells of random kinds: numbers that may lie beyond
    a normalizer, and taxons of either tree."""
    cells = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            names = rng.sample("abc", rng.randint(1, 2))
            cells.append(Atom(names[0]) if len(names) == 1 and rng.random() < 0.7
                         else AtomSet(names))
        elif kind == 1:
            lo = rng.randint(0, 4)
            cells.append(IntInterval(lo, lo + rng.randint(0, 3)))
        elif kind == 2:
            cells.append(Number(F(rng.randint(0, 6), rng.choice((1, 2)))))
        else:
            tree = rng.choice(trees)
            cells.append(Taxon(tree, rng.choice(sorted(tree.nodes))))
    return tuple(cells)


def _random_normalizer(rng):
    """None, one D for every position, or a D per position with some
    positions left out; a D may be zero or negative.  `_bounded` puts it
    on a tuple's numbers."""
    def d():
        return F(rng.choice((-1, 0, 1, 2, 3, 6, 9)), rng.choice((1, 2)))

    choice = rng.randrange(3)
    if choice == 0:
        return None
    if choice == 1:
        return d()
    return {j: d() for j in range(4) if rng.random() < 0.7}


def _bounded(t, normalizer):
    """t, a tuple or a row, with each number holding its position's D in
    `normalizer`; a number refuses a D that is not positive, and then
    stays without one, like a number whose position has none."""
    cells = []
    for j, v in enumerate(getattr(t, "cells", t)):
        d = normalizer.get(j) if isinstance(normalizer, dict) else normalizer
        if isinstance(v, Number) and d is not None:
            try:
                v = Number(v.value, d)
            except InputError as exc:
                assert d <= 0 and str(exc) == "normalizer D must be positive"
        cells.append(v)
    return t.replace(cells=tuple(cells)) if isinstance(t, Row) else tuple(cells)


def _rho_outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except (InputError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_bounded_rho_matches_the_whole_sum_reference():
    """Same inputs: the same error type and message whatever the bound,
    the same minimum unbounded, and the reference's minimum under a bound
    exactly when it lies within it."""
    from reference import rho as whole_sum_rho

    rng = random.Random(1515)
    seen = {"raised": 0, "uncomparable": 0, "within": 0, "beyond": 0}
    for _ in range(3000):
        S = [_random_tuple(rng, _TREES) for _ in range(rng.randint(1, 3))]
        S2 = [_random_tuple(rng, _TREES) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            S2 = [Row(f"r{k}", cells) for k, cells in enumerate(S2)]
        mode = rng.choice((IS, PC))
        # D is the second operand's: a first-operand D that were read
        # would change the outcome
        normalizer = _random_normalizer(rng)
        S = [_bounded(t, F(1, 3)) for t in S]
        S2 = [_bounded(t, normalizer) for t in S2]
        expected = _rho_outcome(whole_sum_rho, S, S2, mode)
        for bound in (None, F(-1), F(0), F(1, 2), F(1), F(2), F(7, 2)):
            got = _rho_outcome(rho, S, S2, mode, at_most=bound)
            if expected[0] != "value":
                assert got == expected
                continue
            best = expected[1]
            within = best is not None and (bound is None or best <= bound)
            assert got == ("value", best if within else None)
            if bound is not None:
                seen["within" if within else "beyond" if best is not None
                     else "uncomparable"] += 1
        seen["raised"] += expected[0] != "value"
    assert min(seen.values()) > 300, seen


def test_planned_distances_match_the_per_cell_reference():
    """d_vector, d_bar and hamming read the plan rho reads; each equals
    the per-cell path's result, or raises its error type and message."""
    import reference

    rng = random.Random(1717)
    seen = {"raised": 0, "value": 0}
    for _ in range(1000):
        a, b = _random_tuple(rng, _TREES), _random_tuple(rng, _TREES)
        while type_compatible(a, b) is None and rng.random() < 0.9:
            b = _random_tuple(rng, _TREES)  # mostly comparable pairs
        if rng.random() < 0.02:
            a += ("not a value",)
        if rng.random() < 0.3:
            b = Row("r", b)
        mode = rng.choice((IS, PC))
        a, b = _bounded(a, F(1, 3)), _bounded(b, _random_normalizer(rng))
        for fn, ref in ((d_vector, reference.d_vector), (d_bar, reference.d_bar)):
            expected = _rho_outcome(ref, a, b, mode)
            assert _rho_outcome(fn, a, b, mode) == expected
        assert _rho_outcome(hamming, a, b) == _rho_outcome(reference.hamming, a, b)
        seen["value" if expected[0] == "value" else "raised"] += 1
    assert min(seen.values()) >= 300, seen
