from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from privtrace.metrics import (
    IntervalMeasureMode,
    MetricError,
    d_bar,
    d_eucl,
    d_nom,
    d_num,
    d_vector,
    d_wp,
    hamming,
    rho,
)
from privtrace.schema import type_compatible
from privtrace.values import Atom, AtomSet, IntInterval, Number, TaxonomyTree

IS = IntervalMeasureMode.INTEGER_SET
PC = IntervalMeasureMode.PAPER_COMPAT


def test_d_nom_examples():
    assert d_nom(AtomSet({"M"}), AtomSet({"M"})) == 0
    assert d_nom(Atom("Maths"), Atom("Physics")) == 1
    # exhaustive sets: delta = {a,c}, union = {a,b,c}
    assert d_nom(AtomSet({"a", "b"}), AtomSet({"b", "c"})) == F(2, 3)


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
    with pytest.raises(MetricError):
        d_eucl(Number(0), Number(5), F(0))
    with pytest.raises(MetricError):
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
    with pytest.raises(KeyError):
        d_wp(tree, "Flu", "Plague")


def _rows(published):
    return {r.line_id: r for r in published.rows}


def test_d_vector_published_l4_l5(published, ailment_tree):
    rows = _rows(published)
    taxo = {"ailment": ailment_tree}
    vec = d_vector(rows["l4"], rows["l5"], None, PC, taxonomies=taxo)
    assert vec == (F(19, 20), 0, 1, 0)
    assert d_vector(rows["l4"], rows["l4"], None, PC, taxonomies=taxo) == (0, 0, 0, 0)
    vec_is = d_vector(rows["l1"], rows["l3"], None, IS, taxonomies=taxo)
    # per-column direct evaluation; the last entry is d_wp of depth-2 nodes
    assert vec_is == (0, 0, 1, F(1, 2))


def test_d_bar_published(published, ailment_tree):
    rows = _rows(published)
    taxo = {"ailment": ailment_tree}
    assert d_bar(rows["l4"], rows["l5"], None, PC, taxonomies=taxo) == F(39, 20)
    assert d_bar(rows["l4"], rows["l5"], None, IS, taxonomies=taxo) == F(41, 21)
    assert d_bar(rows["l4"], rows["l4"], None, IS, taxonomies=taxo) == 0


def test_rho_published(published, ailment_tree):
    rows = _rows(published)
    taxo = {"ailment": ailment_tree}
    assert rho([rows["l4"]], [rows["l5"]], PC, taxonomies=taxo) == F(39, 20)
    S = [rows["l1"], rows["l2"]]
    assert rho(S, S, IS, taxonomies=taxo) == 0
    # brute force over the four pairs froze this minimum (pair l2/l5)
    assert rho(S, [rows["l4"], rows["l5"]], IS, taxonomies=taxo) == F(3, 2)


def test_rho_brute_force_agreement(published, ailment_tree):
    rows = list(published.rows)
    taxo = {"ailment": ailment_tree}
    S, S2 = rows[:3], rows[2:]
    expected = min(
        d_bar(a, b, None, IS, taxonomies=taxo) for a in S for b in S2
    )
    assert rho(S, S2, IS, taxonomies=taxo) == expected


def test_rho_uncomparable_is_none():
    assert rho([(Atom("a"),)], [(Number(1),)]) is None


def test_rho_symmetric_and_min_property(published, ailment_tree):
    from privtrace.metrics import d_bar as _d_bar

    rows = list(published.rows)
    taxo = {"ailment": ailment_tree}
    S, S2 = rows[:2], rows[3:]
    r = rho(S, S2, IS, taxonomies=taxo)
    assert r == rho(S2, S, IS, taxonomies=taxo)
    for a in S:
        for b in S2:
            assert r <= _d_bar(a, b, None, IS, taxonomies=taxo)


def test_hamming_partial_metric_cases():
    t1 = (IntInterval(1, 2), Atom("a"))
    assert hamming(t1, (IntInterval(2, 3), Atom("a"))) == 1
    assert hamming(t1, (IntInterval(2, 3), Atom("b"))) == 2
    assert hamming((Atom("bd"), Atom("a")), (IntInterval(2, 3), Atom("b"))) is None


def test_hamming_published_l4_l5(published):
    rows = _rows(published)
    assert hamming(rows["l4"], rows["l5"]) == 2


def test_domination_d_bar_below_hamming(published, ailment_tree):
    taxo = {"ailment": ailment_tree}
    rows = list(published.rows)
    for a in rows:
        for b in rows:
            dh = hamming(a, b)
            assert d_bar(a, b, None, IS, taxonomies=taxo) <= dh


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
    t, t2 = (Number(0), Atom("a"), Number(0)), (Number(1), Atom("a"), Number(1))
    assert d_vector(t, t2, normalizer={0: F(2), 2: F(4)}) == (F(1, 2), 0, F(1, 4))
    assert d_vector(t, t2, normalizer=F(2)) == (F(1, 2), 0, F(1, 2))


def test_vector_requires_comparable():
    with pytest.raises(MetricError):
        d_vector((Atom("a"),), (Number(1),))


def test_hamming_none_when_correspondence_none():
    t = (Atom("a"),)
    t2 = (Number(1),)
    assert type_compatible(t, t2) is None
    assert hamming(t, t2, None) is None
