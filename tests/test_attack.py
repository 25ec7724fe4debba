from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from privtrace.attack import (
    apply_strategy,
    load_attack_dltts,
    max_pr,
    threshold_report,
)
from privtrace.dltts import validate
from privtrace.profiles import AttackerProfile, attack_problems, build_attack_dltts
from privtrace.records import InputError
from privtrace.schema import ColumnSchema, DataTable, Row, load_table
from privtrace.values import Atom, ColumnClass, IntInterval
import reference
from reference import Comparison, multiset_compare

DECLARED = {l: F(3, 16) for l in ("l1", "l2", "l3", "l4")}


def pr_access(attack, node: str, line: str) -> F:
    """Max probability of reaching `node` from the root along runs that take
    only priority-maximal transitions at every choice point."""
    if (node, line) not in attack.singleton_nodes():
        raise InputError(f"incoming label at {node!r} is not the singleton {{{line}}}")
    best, _ = attack._runs
    return best.get(node, F(0))


@pytest.fixture(scope="module")
def responses(enterprise):
    return enterprise.table("responses")


@pytest.fixture(scope="module")
def figures(enterprise):
    return enterprise.attack_dltts


def test_multiset_compare_examples():
    assert multiset_compare([F(2, 3), F(1, 3)], [F(1, 2), F(1, 2)]) is Comparison.GREATER
    assert multiset_compare([F(1, 2)], [F(1, 2)]) is Comparison.EQUAL
    assert multiset_compare([F(3, 4), F(1, 4)], [F(3, 4), F(1, 4)]) is Comparison.EQUAL
    assert multiset_compare([F(1, 2), F(1, 2)], [F(2, 3), F(1, 3)]) is Comparison.LESS


def dm_oracle(m1, m2):
    """Textbook multiset extension of > : M > N iff M != N and every element
    of N - M is dominated by some element of M - N (with multiplicities)."""

    def difference(a, b):
        out = list(a)
        for x in b:
            if x in out:
                out.remove(x)
        return out

    if sorted(m1) == sorted(m2):
        return Comparison.EQUAL

    def greater(a, b):
        bma = difference(b, a)
        amb = difference(a, b)
        return all(any(x > y for x in amb) for y in bma)

    if greater(m1, m2):
        return Comparison.GREATER
    if greater(m2, m1):
        return Comparison.LESS
    raise AssertionError("total order violated")


fractions5 = st.lists(
    st.fractions(min_value=0, max_value=1), min_size=1, max_size=5
)


@given(fractions5, fractions5)
def test_multiset_compare_matches_dm_oracle(m1, m2):
    assert multiset_compare(m1, m2) is dm_oracle(m1, m2)


@given(fractions5, fractions5, fractions5)
def test_multiset_compare_total_and_transitive(a, b, c):
    ab, ba = multiset_compare(a, b), multiset_compare(b, a)
    assert (ab is Comparison.EQUAL) == (ba is Comparison.EQUAL)
    if ab is Comparison.GREATER:
        assert ba is Comparison.LESS
    if (
        multiset_compare(a, b) is Comparison.GREATER
        and multiset_compare(b, c) is Comparison.GREATER
    ):
        assert multiset_compare(a, c) is Comparison.GREATER


def test_build_attack_b_matches_published_shape(enterprise, responses):
    attack = build_attack_dltts(responses, enterprise.profiles["B"])
    root = attack.dltts.outgoing("s0")
    assert len(root) == 1
    by_text = {b.label.text: b for b in root[0].branches}
    m_branch = by_text["Sex=M"]
    assert m_branch.prob == F(4, 5)
    assert m_branch.label.lines == frozenset({"l3", "l4"})
    assert m_branch.label.source == "B"
    f_branch = by_text["Sex=F"]
    assert f_branch.prob == F(1, 5)
    # under M: priors split 3/4 to {l3}, 1/4 to {l4}
    level2 = attack.dltts.outgoing(m_branch.to)[0]
    probs = {b.label.text: b.prob for b in level2.branches}
    assert probs == {"Age=[30-40]": F(3, 4), "Age=[40-50]": F(1, 4)}
    # under F: a single present value, probability 1 with db provenance
    f_level = [
        t for t in attack.dltts.outgoing(f_branch.to) if t.action.startswith("query")
    ][0]
    assert len(f_level.branches) == 1
    assert f_level.branches[0].prob == 1
    assert f_level.branches[0].label.source == "db"
    assert attack_problems(attack, responses) == []


def test_build_attack_a_thresholds(enterprise, responses):
    attack = build_attack_dltts(responses, enterprise.profiles["A"])
    report = threshold_report(attack)
    assert report[("1", "F")] == F(2, 5)
    assert report[("8", "F")] == F(2, 5)
    assert report[("3", "M")] == F(7, 50)
    assert report[("7", "M")] == F(3, 50)


def test_build_attack_single_attribute_single_row(enterprise):
    cols = enterprise.table("responses").columns
    table = load_table("Line,Sex,Age,Response\nl1,F,[30-40],2\n", cols, "t")
    profile = AttackerProfile("tiny", ("Sex",), {"Sex": {Atom("F"): F(1)}})
    attack = build_attack_dltts(table, profile)
    assert len(attack.responses) == 1
    edge = attack.responses[0]
    assert edge.line == "l1" and edge.value == "2"
    assert pr_access(attack, edge.node, "l1") == 1


def test_build_attack_baseline_all_db_provenance(responses):
    # the responses table's own marginals, as an empirical profile
    profile = AttackerProfile(
        "baseline",
        ("Sex", "Age"),
        {
            "Sex": {Atom("F"): F(1, 2), Atom("M"): F(1, 2)},
            "Age": {IntInterval(30, 40): F(3, 4), IntInterval(40, 50): F(1, 4)},
        },
        empirical=True,
    )
    attack = build_attack_dltts(responses, profile)
    for t in attack.dltts.transitions:
        for b in t.branches:
            assert b.label.source == "db"
    assert attack_problems(attack, responses) == []


def test_build_attack_missing_prior_errors(responses):
    profile = AttackerProfile("bad", ("Sex",), {"Sex": {Atom("F"): F(1)}})
    with pytest.raises(InputError):
        build_attack_dltts(responses, profile)


def test_build_attack_partition_invariants(enterprise, responses):
    for name in ("A", "B", "C"):
        attack = build_attack_dltts(responses, enterprise.profiles[name])
        assert attack_problems(attack, responses) == []
        for t in attack.dltts.transitions:
            assert sum((b.prob for b in t.branches), F(0)) == 1


def random_build_case(rng: random.Random) -> tuple[DataTable, AttackerProfile]:
    """A table of 0-12 rows over 1-3 quasi-identifier columns, mostly with a
    sensitive column, and a profile over them: orders that repeat a column
    or are empty, now and then a non-qid column; priors per column, some
    zero and now and then one missing; `empirical` either way."""
    pools = {f"Q{i}": [Atom(f"v{k}") for k in range(rng.randint(1, 4))]
             for i in range(rng.randint(1, 3))}
    columns = [ColumnSchema(name, ColumnClass.NOMINAL, "quasi-identifier")
               for name in pools]
    if rng.random() < 0.9:
        columns.append(ColumnSchema("S", ColumnClass.NOMINAL, "sensitive"))
    rows = tuple(
        Row(f"r-{i}", tuple(rng.choice(pools.get(c.name, [Atom("x"), Atom("y")]))
                            for c in columns))
        for i in range(rng.randint(0, 12))
    )
    names = list(pools) + ["S"] * (rng.random() < 0.05)
    order = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
    priors = {}
    for name, pool in pools.items():
        if rng.random() < 0.5:
            weights = [rng.randint(0, 3) for _ in pool]
            weights[rng.randrange(len(pool))] += 1
            priors[name] = {v: F(w, sum(weights)) for v, w in zip(pool, weights)}
            if len(pool) > 1 and rng.random() < 0.1:
                priors[name].pop(rng.choice(pool))
                priors[name][Atom("absent")] = 1 - sum(priors[name].values())
    profile = AttackerProfile("P", order, priors or None,
                              empirical=rng.random() < 0.3)
    return DataTable("t", tuple(columns), rows), profile


def _built(build, db, profile):
    try:
        attack = build(db, profile)
    except Exception as exc:
        return type(exc), str(exc)
    return attack.dltts.transitions, attack.responses


def test_build_matches_the_recursive_reference():
    rng = random.Random(20261019)
    seen = {"error": 0, "missing prior": 0, "zero prior": 0, "empty": 0, "prior": 0,
            "repeat": 0}
    for case in range(1500):
        db, profile = random_build_case(rng)
        got = _built(build_attack_dltts, db, profile)
        assert got == _built(reference.build_attack_dltts, db, profile), case
        seen["error"] += isinstance(got[0], type)
        seen["missing prior"] += got[0] is InputError and "no prior" in got[1]
        seen["zero prior"] += got[0] is InputError and "have prior 0" in got[1]
        seen["empty"] += not db.rows
        seen["repeat"] += len(set(profile.attribute_order)) < len(profile.attribute_order)
        seen["prior"] += not isinstance(got[0], type) and any(
            b.label.source == "P" for t in got[0] for b in t.branches)
    assert min(seen.values()) > 50, seen


def test_build_takes_near_linear_time_on_many_distinct_values():
    columns = (ColumnSchema("Q", ColumnClass.NOMINAL, "quasi-identifier"),
               ColumnSchema("S", ColumnClass.NOMINAL, "sensitive"))
    rows = tuple(Row(f"l{i}", (Atom(f"v{i % 2000}"), Atom("x"))) for i in range(4000))
    db = DataTable("t", columns, rows)
    start = time.perf_counter()
    attack = build_attack_dltts(db, AttackerProfile("P", ("Q",)))
    assert time.perf_counter() - start < 1
    assert len(attack.responses) == 4000
    assert len(attack.dltts.transitions[0].branches) == 2000


def test_built_tree_over_an_empty_table_has_no_query():
    """A query level needs a branch, so an empty table builds none, and the
    priority runs read the bare tree."""
    columns = (ColumnSchema("Q", ColumnClass.NOMINAL, "quasi-identifier"),)
    attack = build_attack_dltts(DataTable("t", columns, ()), AttackerProfile("P", ("Q",)))
    assert attack.dltts.transitions == ()
    assert threshold_report(attack) == {}


def test_pr_access_on_loaded_figures(figures):
    C, B = figures["C"], figures["B"]
    assert pr_access(C, "s6", "l1") == F(3, 16)
    assert pr_access(B, "s7", "l3") == F(3, 5)
    # root-adjacent singleton branch: probability is the branch's own
    assert pr_access(C, "s2", "l4") == F(1, 4)


def test_pr_access_requires_singleton(figures):
    with pytest.raises(InputError):
        pr_access(figures["C"], "s1", "l1")


def test_pr_access_never_exceeds_max_pr(figures):
    for attack in figures.values():
        for node, line in attack.singleton_nodes():
            assert pr_access(attack, node, line) <= max_pr(attack, line)


def test_max_pr_on_loaded_baseline(figures):
    C = figures["C"]
    assert max_pr(C, "l1") == F(3, 16)
    assert max_pr(C, "l2") == F(3, 16)
    assert max_pr(C, "l3") == F(3, 16)
    # the literal transcript routes l4 through age=[40-50] with probability 1/4
    assert max_pr(C, "l4") == F(1, 4)
    assert max_pr(C, "l9") == 0


def test_threshold_reports_match_published_numbers(figures):
    assert threshold_report(figures["B"]) == {
        ("3", "M"): F(3, 5),
        ("7", "M"): F(1, 5),
        ("1", "F"): F(1, 10),
        ("8", "F"): F(1, 10),
    }
    assert threshold_report(figures["A"]) == {
        ("3", "M"): F(7, 50),
        ("7", "M"): F(3, 50),
        ("1", "F"): F(2, 5),
        ("8", "F"): F(2, 5),
    }


def test_loaded_baseline_synthesizes_assumed_responses(figures):
    C = figures["C"]
    assumed = [e for e in C.responses if e.assumed]
    assert [(e.node, e.line, e.value) for e in assumed] == [("s2", "l4", "7")]


def test_loaded_transcripts_consistency(figures):
    # A and B are internally consistent; C preserves the drawn {l3,l4} label
    # under a {l1,l2,l3} parent, and the checker flags exactly that
    assert attack_problems(figures["A"]) == []
    assert attack_problems(figures["B"]) == []
    problems = attack_problems(figures["C"])
    assert len(problems) == 1 and "do not partition" in problems[0]


def test_overlapping_sibling_label_sets_are_flagged():
    attack = load_attack_dltts("initial: s0\n"
                               "s0 -> [(s1, 1, x {l1,l2,l3})] q\n"
                               "s1 -> [(s2, 1/2, y {l1,l2}), (s3, 1/2, z {l2,l3})] r\n")
    assert attack_problems(attack) == ["s1: sibling label sets overlap"]


def test_apply_strategy_declared_baseline(figures):
    C = figures["C"]
    cases = [
        ("B", DECLARED, {("s7", "l3"), ("s8", "l4")}),
        ("A", DECLARED, {("s5", "l1"), ("s6", "l2")}),
        ("C", None, set()),
    ]
    for name, baseline_max, expected in cases:
        updated, decisions = apply_strategy(figures[name], C, baseline_max=baseline_max)
        off = {(d.node, d.line) for d in decisions if d.switched_off}
        assert off == expected, name
        assert updated.off == frozenset(off)
        # a response goes OFF exactly where the attacker beats the baseline
        for d in decisions:
            assert d.switched_off == (d.probability > d.baseline)
    updated, _ = apply_strategy(figures["B"], C, baseline_max=DECLARED)
    assert not updated.switched_on("s7", "l3")
    assert updated.switched_on("s5", "l1")


def test_apply_strategy_computed_baseline_keeps_s8(figures):
    B, C = figures["B"], figures["C"]
    updated, decisions = apply_strategy(B, C)
    by_node = {d.node: d for d in decisions}
    assert by_node["s8"].baseline == F(1, 4)
    assert not by_node["s8"].switched_off
    assert by_node["s7"].switched_off
    assert updated.switched_on("s8", "l4")


def test_apply_strategy_self_is_noop(figures):
    C = figures["C"]
    updated, decisions = apply_strategy(C, C)
    assert not any(d.switched_off for d in decisions)
    assert updated.off == frozenset()


def test_strategy_boundary_is_strict(figures):
    B, C = figures["B"], figures["C"]
    exact = {l: max_pr(B, l) for l in ("l1", "l2", "l3", "l4")}
    _, decisions = apply_strategy(B, C, baseline_max=exact)
    assert not any(d.switched_off for d in decisions)


def test_off_response_not_traversed(figures):
    B, C = figures["B"], figures["C"]
    updated, _ = apply_strategy(B, C, baseline_max=DECLARED)
    # s7's response is OFF: its leaf is unreachable under priority runs
    from privtrace.attack import _priority_runs

    best, _ = _priority_runs(updated)
    assert "s9" not in best
    assert max_pr(updated, "l3") == F(3, 5)


def test_a_branch_into_stop_gets_no_response_switch():
    """Stop has no outgoing transition, so a singleton label into Stop
    marks no node for a response switch."""
    attack = load_attack_dltts("initial: s0\ns0 -> [(s1, 1/2, P_db x {l1,l2}), "
                               "(STOP, 1/2, P_db y {l3})] q\n", "X")
    assert attack.singleton_nodes() == ()
    assert validate(attack.dltts) == []
    assert threshold_report(attack) == {}
    assert attack_problems(attack) == []


def test_a_drawn_response_switch_at_stop_breaks_the_rules():
    """A switch drawn at Stop is a transition out of Stop, which reports
    refuse as they refuse any other broken rule."""
    attack = load_attack_dltts("initial: s0\ns0 -> [(s1, 1/2, P_db x {l1,l2}), "
                               "(STOP, 1/2, P_db y {l3})] q\n"
                               "STOP -> [(STOPr, 1, P_db response(l3)=1)] response(l3)\n",
                               "X")
    assert validate(attack.dltts) == ["Stop has an outgoing transition"]
    with pytest.raises(InputError, match="^X: Stop has an outgoing transition$"):
        threshold_report(attack)


def test_a_line_id_holding_a_newline_names_its_response_switch(enterprise):
    """A quoted CSV line id may hold a newline.  The switch response(l\\n1)
    that the builder draws for it is read as a switch: the built tree keeps
    its partition rules, and the strategy's OFF switch cuts its target off
    the priority runs."""
    cols = enterprise.table("responses").columns
    table = load_table('Line,Sex,Age,Response\nl1,F,[30-40],2\n"l\n1",M,[30-40],3\n',
                       cols, "t")
    attack = build_attack_dltts(table, AttackerProfile("P", ("Sex",)))
    assert attack_problems(attack, table) == []
    assert sorted(attack._switch_lines.values()) == ["l\n1", "l1"]
    (edge,) = [e for e in attack.responses if e.line == "l\n1"]
    updated, decisions = apply_strategy(attack, attack,
                                        baseline_max={"l1": F(1), "l\n1": F(0)})
    assert [(d.node, d.switched_off) for d in decisions if d.line == "l\n1"] == [
        (edge.node, True)]
    assert edge.target in attack._runs[0]
    assert edge.target not in updated._runs[0]


def test_empty_attack_report():
    attack = load_attack_dltts("initial: s0\ns0 -> [(s1, 1, x {l1,l2})] query\n")
    assert threshold_report(attack) == {}
    assert max_pr(attack, "l1") == 0


def test_a_synthesized_switch_target_never_names_a_drawn_state():
    """The switch synthesized at `s1` goes to `s1r` unless a state already
    has that name: here the drawn `s1r` answers l2 with probability 1/4, so
    a switch into it would add s1's 3/4 to Max_pr(l2).  The target is the
    first of `s1r`, `s1rr`, ... that names no state, and the report equals
    the one where the drawn state has another name."""
    drawn = ("s0 -> [(s1, 3/4, P_a {l1}), (s1r, 1/4, P_a {l2})] pick\n"
             "s1r -> [(s2, 1, P_db response(l2)=5)] response(l2)\n")
    attack = load_attack_dltts(drawn, "X")
    assert max_pr(attack, "l2") == F(1, 4)
    assert max_pr(attack, "l1") == F(3, 4)
    assert [(e.node, e.target, e.assumed) for e in attack.responses] == [
        ("s1r", "s2", False), ("s1", "s1rr", True)]
    renamed = load_attack_dltts(drawn.replace("s1r", "x9"), "X")
    assert threshold_report(attack) == threshold_report(renamed)
    taken = load_attack_dltts(drawn + "s2 -> [(s1rr, 1, P_db q)] q\n", "X")
    assert [e.target for e in taken.responses if e.assumed] == ["s1rrr"]
