"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; with `-s` each also prints an explicit [acceptance] line.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations

from privtrace.attack import apply_strategy, max_pr, threshold_report
from privtrace.dltts import DlttsBuilder, reach_stop, saturate, validate
from privtrace.lts import Label
from privtrace.metrics import (
    IntervalMeasureMode,
    d_eucl,
    d_nom,
    d_num,
    d_wp,
    hamming,
    rho,
)
from privtrace.indist import (
    min_eps_hamming_indist,
    min_eps_rho_indist,
    min_indist_epsilon,
)
from privtrace.privacy import (
    Mechanism,
    min_dp_epsilon,
    min_ldp_epsilon,
    HammingAdjacency,
)
from privtrace.scenario import build_run, run_scenario
from privtrace.schema import ColumnSchema, DataTable, Row, TuplePattern
from privtrace.values import (
    Atom,
    AtomSet,
    ColumnClass,
    IntInterval,
    Number,
    STAR,
    TaxonomyTree,
    Taxon,
)
from reference import multiset_compare, randomized_response

IS = IntervalMeasureMode.INTEGER_SET
PC = IntervalMeasureMode.PAPER_COMPAT

CASES = 10_000


def _ok(n: int, what: str) -> None:
    print(f"[acceptance] criterion {n}: PASS: {what}")


def test_criterion_1_metric_modes(published):
    l4, l5 = published.row("l4"), published.row("l5")
    assert rho([l4], [l5], PC) == F(39, 20)
    assert rho([l4], [l5], IS) == F(41, 21)
    _ok(1, "rho(l4,l5) = 39/20 paper-compat, 41/21 integer-set")


def test_criterion_2_scaled_epsilon_values(hospital, published):
    m = hospital.mechanism("viral_query")
    tuples = (published.row("l4"), published.row("l5"))
    res = min_eps_rho_indist(m, "l4", "l5", "Viral-Infection", PC, tuples=tuples)
    assert math.isclose(res.value, F(20, 39) * math.log(2), abs_tol=1e-9)
    assert res.exact_str() == "(20/39)*ln(2/1)"
    ham = min_eps_hamming_indist(m, "l4", "l5", "Viral-Infection", tuples=tuples)
    assert math.isclose(ham.value, math.log(2) / 2, abs_tol=1e-9)
    assert ham.exact_str() == "(1/2)*ln(2/1)"
    _ok(2, "(20/39)*ln(2) rho-scaled and (1/2)*ln(2) hamming-scaled")


def test_criterion_3_indistinguishability_ln2(hospital):
    m = hospital.mechanism("viral_query")
    res = min_indist_epsilon(m, "l4", "l5", "Viral-Infection")
    assert res.scale == 1 and res.ratio == 2
    assert res.exact_str() == "ln(2/1)"
    _ok(3, "min epsilon for probs (1/3, 2/3) is exactly ln(2/1)")


def test_criterion_4_randomized_response():
    _, rr = randomized_response()
    ldp = min_ldp_epsilon(rr)
    assert ldp.scale == 1 and ldp.ratio == 3
    dp = min_dp_epsilon(rr, HammingAdjacency())
    assert dp.scale == 1 and dp.ratio == 3
    _ok(4, "randomized response: LDP and Hamming-DP bounds are exactly ln(3)")


def test_criterion_5_hospital_pipeline(hospital):
    dltts, verdicts = build_run(hospital, "trace")
    assert validate(dltts) == []
    reached, runs = reach_stop(dltts)
    assert reached
    assert runs[0].states == ("s0", "s2", "s4", "s6", "STOP")
    assert runs[0].probability == F(2, 3)
    _ok(5, "saturation + oracle reach Stop via s0,s2,s4,s6 with probability 2/3")


def test_criterion_6_thresholds_on_loaded_transcripts(enterprise):
    C = enterprise.attack_dltts["C"]
    for line in ("l1", "l2", "l3"):
        assert max_pr(C, line) == F(3, 16)
    assert max_pr(C, "l4") == F(1, 4)
    assert threshold_report(enterprise.attack_dltts["B"]) == {
        ("3", "M"): F(3, 5),
        ("7", "M"): F(1, 5),
        ("1", "F"): F(1, 10),
        ("8", "F"): F(1, 10),
    }
    assert threshold_report(enterprise.attack_dltts["A"]) == {
        ("3", "M"): F(7, 50),
        ("7", "M"): F(3, 50),
        ("1", "F"): F(2, 5),
        ("8", "F"): F(2, 5),
    }
    report = run_scenario(enterprise).body()
    assert "Max_pr(l4) = 1/4 (declared 3/16)" in report
    assert "NOTE: computed value differs" in report
    _ok(6, "loaded-transcript thresholds match; l4 = 1/4 flagged in the report")


def test_criterion_7_strategy(enterprise):
    declared = enterprise.declared_baseline
    B, A, C = (enterprise.attack_dltts[n] for n in "BAC")
    _, decisions = apply_strategy(B, C, baseline_max=declared)
    assert {(d.node, d.line) for d in decisions if d.switched_off} == {
        ("s7", "l3"), ("s8", "l4"),
    }
    _, decisions = apply_strategy(A, C, baseline_max=declared)
    assert {(d.node, d.line) for d in decisions if d.switched_off} == {
        ("s5", "l1"), ("s6", "l2"),
    }
    updated, decisions = apply_strategy(B, C)  # computed baseline
    by_node = {d.node: d for d in decisions}
    assert not by_node["s8"].switched_off and by_node["s8"].baseline == F(1, 4)
    assert updated.switched_on("s8", "l4")
    report = run_scenario(enterprise).body()
    assert "s8 response(l4): Pr = 1/5 <= baseline 1/4 -> stays ON" in report
    _ok(7, "OFF sets {s7,s8}/{s5,s6} under declared 3/16; s8 stays ON computed")


def _random_tree(rng: random.Random, max_nodes: int = 30) -> TaxonomyTree:
    n = rng.randint(1, max_nodes)
    parent = {f"n{i}": f"n{rng.randrange(i)}" for i in range(1, n)}
    return TaxonomyTree("t", "n0", parent)


def _check_metric_axioms(d, x, y, z, eq):
    assert d(x, x) == 0
    dxy = d(x, y)
    assert dxy == d(y, x)
    assert 0 <= dxy <= 1
    if dxy == 0:
        assert eq(x, y)
    assert d(x, z) <= dxy + d(y, z)


def test_criterion_8a_metric_axioms_battery():
    rng = random.Random(80)
    atoms = "abcdef"
    cases = 0
    for _ in range(CASES):
        x, y, z = (
            AtomSet(rng.sample(atoms, rng.randint(1, 6))) for _ in range(3)
        )
        _check_metric_axioms(d_nom, x, y, z, lambda a, b: a == b)
        x, y, z = (
            IntInterval(*sorted(rng.randint(0, 100) for _ in range(2)))
            for _ in range(3)
        )
        _check_metric_axioms(
            lambda a, b: d_num(a, b, IS), x, y, z, lambda a, b: a == b
        )
        big_d = F(100)
        x, y, z = (Number(F(rng.randint(0, 100))) for _ in range(3))
        _check_metric_axioms(
            lambda a, b: d_eucl(a, b, big_d), x, y, z, lambda a, b: a == b
        )
        cases += 1
    assert cases >= CASES
    _ok(8, f"metric axioms hold on {cases} random nominal/interval/number triples")


def test_criterion_8b_wu_palmer_triangle_battery():
    rng = random.Random(81)
    cases = 0
    for _ in range(CASES):
        tree = _random_tree(rng)
        nodes = sorted(tree.nodes)
        x, y, z = (rng.choice(nodes) for _ in range(3))
        _check_metric_axioms(
            lambda a, b: d_wp(tree, a, b), x, y, z, lambda a, b: a == b
        )
        cases += 1
    assert cases >= CASES
    _ok(8, f"taxonomy distance is a metric on {cases} random (tree, x, y, z) draws")


def _random_comparable_pair(rng: random.Random, tree: TaxonomyTree):
    kinds = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
    nodes = sorted(tree.nodes)

    def cell(kind):
        if kind == 0:
            return AtomSet(rng.sample("abcd", rng.randint(1, 3)))
        if kind == 1:
            return IntInterval(*sorted(rng.randint(0, 50) for _ in range(2)))
        if kind == 2:
            return Number(F(rng.randint(0, 100)), F(100))  # the column's D: 100
        return Taxon(tree, rng.choice(nodes))

    return tuple(cell(k) for k in kinds), tuple(cell(k) for k in kinds)


def test_criterion_8c_rho_below_hamming_battery():
    from privtrace.metrics import d_vector

    rng = random.Random(82)
    cases = 0
    for _ in range(CASES):
        tree = _random_tree(rng, max_nodes=8)
        t, t2 = _random_comparable_pair(rng, tree)
        dh = hamming(t, t2)
        r = rho([t], [t2], IS)
        assert dh is not None and r is not None
        assert r <= dh
        vec = d_vector(t, t2, IS)
        for entry, a, b in zip(vec, t, t2):
            assert entry <= (1 if a != b else 0)
        if t != t2 and dh > 0:
            # the rho-scaled minimal epsilon dominates the Hamming-scaled
            # one under a random mechanism over the pair, so satisfying the
            # finer bound always satisfies the coarser one
            p = F(rng.randint(1, 9), 10)
            q = F(rng.randint(1, 9), 10)
            m = Mechanism.from_rows(
                "pairm",
                {t: {"o": p, "x": 1 - p}, t2: {"o": q, "x": 1 - q}},
            )
            e_rho = min_eps_rho_indist(m, t, t2, "o", IS)
            e_ham = min_eps_hamming_indist(m, t, t2, "o")
            if r == 0:
                assert e_rho.unbounded or e_rho.value == 0
            else:
                assert e_ham.value <= e_rho.value + 1e-12
        cases += 1
    assert cases >= CASES
    _ok(8, f"rho <= generalized Hamming on {cases} comparable random pairs")


def _dm_oracle_greater(m1, m2) -> bool:
    def difference(a, b):
        out = list(a)
        for x in b:
            if x in out:
                out.remove(x)
        return out

    if sorted(m1) == sorted(m2):
        return False
    bma = difference(m2, m1)
    amb = difference(m1, m2)
    return all(any(x > y for x in amb) for y in bma)


def test_criterion_8d_multiset_order_battery():
    rng = random.Random(83)
    pool = [F(a, b) for b in range(1, 6) for a in range(0, b + 1)]
    cases = 0
    for _ in range(CASES):
        m1 = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        m2 = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        verdict = multiset_compare(m1, m2)
        if _dm_oracle_greater(m1, m2):
            assert verdict.value == "greater"
        elif _dm_oracle_greater(m2, m1):
            assert verdict.value == "less"
        else:
            assert verdict.value == "equal" and sorted(m1) == sorted(m2)
        cases += 1
    assert cases >= CASES
    _ok(8, f"multiset priority matches the brute-force extension on {cases} pairs")


def _random_mechanism(rng: random.Random) -> Mechanism:
    n_in = rng.randint(2, 4)
    n_out = rng.randint(1, 4)
    outputs = tuple(f"o{i}" for i in range(n_out))
    rows = {}
    for i in range(n_in):
        weights = [rng.randint(0, 3) if n_out > 1 else 1 for _ in range(n_out)]
        if sum(weights) == 0:
            weights[rng.randrange(n_out)] = 1
        total = sum(weights)
        rows[f"v{i}"] = {
            o: F(w, total) for o, w in zip(outputs, weights) if w
        }
    return Mechanism.from_rows("m", rows, outputs=outputs)


def _ldp_oracle(m: Mechanism):
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


def test_criterion_8e_ldp_oracle_battery():
    rng = random.Random(84)
    cases = 0
    for _ in range(CASES):
        m = _random_mechanism(rng)
        res = min_ldp_epsilon(m)
        best, unbounded = _ldp_oracle(m)
        assert res.unbounded == unbounded
        if not unbounded:
            assert res.ratio == best
        cases += 1
    assert cases >= CASES
    _ok(8, f"pointwise LDP scan matches the independent oracle on {cases} mechanisms")


# The drawn taxons carry their own random trees; saturation reads only
# the column groups here.
_SAT_COLUMNS = (
    ColumnSchema("Name", ColumnClass.NOMINAL, "identifier"),
    ColumnSchema("Dept", ColumnClass.NOMINAL, "quasi-identifier"),
    ColumnSchema("Ailment", ColumnClass.TAXORAL, "sensitive",
                 taxonomy=TaxonomyTree("t", "n0", {})),
)


def _random_tag_and_bases(rng: random.Random):
    tree = _random_tree(rng, max_nodes=5)
    nodes = sorted(tree.nodes)
    names = ["John", "Joan"]
    depts = ["Phys", "Chem"]

    def pattern():
        cells = (
            rng.choice([STAR, Atom(rng.choice(names))]),
            rng.choice([STAR, Atom(rng.choice(depts))]),
            rng.choice([STAR, Taxon(tree, rng.choice(nodes))]),
        )
        return TuplePattern(("Name", "Dept", "Ailment"), cells)

    tag = frozenset(pattern() for _ in range(rng.randint(0, 3)))
    extra = frozenset({pattern()})
    record_cols = (
        ColumnSchema("Name", ColumnClass.NOMINAL, "identifier"),
        ColumnSchema("Dept", ColumnClass.NOMINAL, "quasi-identifier"),
    )
    records = DataTable(
        "records",
        record_cols,
        tuple(
            Row(f"r{i}", (Atom(rng.choice(names)), Atom(rng.choice(depts))))
            for i in range(rng.randint(1, 2))
        ),
    )
    count_cols = (
        ColumnSchema("Dept", ColumnClass.NOMINAL, "quasi-identifier"),
        ColumnSchema("Count", ColumnClass.NUMERICAL, "quasi-identifier"),
        ColumnSchema("Ailment", ColumnClass.TAXORAL, "sensitive", taxonomy=tree),
    )
    counts = DataTable(
        "counts",
        count_cols,
        tuple(
            Row(
                f"c{i}",
                (
                    Atom(rng.choice(depts)),
                    Number(F(rng.randint(0, 2))),
                    Taxon(tree, rng.choice(nodes)),
                ),
            )
            for i in range(rng.randint(0, 2))
        ),
    )
    externals = [t for t in (records, counts) if rng.random() < 0.8]
    return tag, extra, externals


def test_criterion_8f_saturation_battery():
    rng = random.Random(85)
    cases = 0
    for _ in range(CASES):
        tag, extra, externals = _random_tag_and_bases(rng)
        sat = saturate(tag, externals, columns=_SAT_COLUMNS)
        again = saturate(sat, externals, columns=_SAT_COLUMNS)
        assert again == sat
        bigger = saturate(tag | extra, externals, columns=_SAT_COLUMNS)
        assert sat <= bigger
        cases += 1
    assert cases >= CASES
    _ok(8, f"saturation idempotent and monotone on {cases} random tag/base pairs")


def _random_builder_system(rng: random.Random):
    b = DlttsBuilder()
    frontier = ["s0"]
    counter = [0]
    for _ in range(rng.randint(1, 3)):
        src = rng.choice(frontier)
        k = rng.randint(1, 3)
        weights = [rng.randint(1, 4) for _ in range(k)]
        total = sum(weights)
        branches = []
        for w in weights:
            counter[0] += 1
            branches.append((f"t{counter[0]}", F(w, total), Label(text=f"a{w}")))
        try:
            b.add_transition(src, "q", branches)
        except Exception:
            continue
        frontier.extend(name for name, _, _ in branches)
    return b.build()


def test_criterion_8g_validate_battery():
    rng = random.Random(86)
    cases = 0
    for _ in range(CASES):
        d = _random_builder_system(rng)
        assert validate(d) == []
        if d.transitions:
            kind = rng.randrange(3)
            t = d.transitions[rng.randrange(len(d.transitions))]
            i = list(d.transitions).index(t)
            if kind == 0:  # break the probability sum
                bad_t = t.replace(
                    branches=(t.branches[0].replace(prob=t.branches[0].prob + 1),)
                    + t.branches[1:],
                )
                bad = d.replace(
                    transitions=d.transitions[:i] + (bad_t,) + d.transitions[i + 1 :]
                )
            elif kind == 1:  # duplicate a distribution
                bad = d.replace(transitions=d.transitions + (t,))
            else:  # outgoing edge from Stop
                from privtrace.lts import Branch, Transition

                extra = Transition(
                    d.stop, "q", (Branch(t.source, F(1), Label()),)
                )
                bad = d.replace(transitions=d.transitions + (extra,))
            assert validate(bad) != []
        cases += 1
    assert cases >= CASES
    _ok(8, f"validate accepts {cases} built systems and rejects each mutation")


def test_criterion_9_generalized_hamming_cases():
    t1 = (IntInterval(1, 2), Atom("a"))
    assert hamming(t1, (IntInterval(2, 3), Atom("a"))) == 1
    assert hamming(t1, (IntInterval(2, 3), Atom("b"))) == 2
    assert hamming((Atom("bd"), Atom("a")), (IntInterval(2, 3), Atom("b"))) is None
    _ok(9, "partial Hamming returns 1, 2, and absent on the three cases")
