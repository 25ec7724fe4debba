from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from privtrace.dltts import (
    DlttsBuilder,
    Oracle,
    OracleVerdict,
    Run,
    check_consistency,
    reach_stop,
    saturate,
    validate,
)
from privtrace.lts import (
    Branch,
    DELTA,
    Dltts,
    Label,
    Transition,
)
from privtrace.indist import epsilon_equivalent_labels, is_eps_indistinguishable
from privtrace.privacy import EpsilonResult, Mechanism
from privtrace.records import InputError
from privtrace.schema import (
    PrivacyPolicy,
    TOP,
    TuplePattern,
    load_table,
    parse_columns,
    parse_pattern,
)
from privtrace.transcript import parse_dltts
from privtrace.values import Atom, STAR
from conftest import SCENARIOS
from reference import oracle_verdict


@pytest.fixture(scope="module")
def covid_cases(hospital):
    return hospital.table("covid_cases")


@pytest.fixture(scope="module")
def pub_pattern(hospital):
    published = hospital.table("published")

    def make(text, negative=False):
        return parse_pattern(text, published.columns, force_negative=negative)

    return make


@pytest.fixture(scope="module")
def main_pattern(hospital):
    def make(text):
        return parse_pattern(text, hospital.schema.columns)

    return make


def test_saturate_refines_taxonomy_with_count_table(pub_pattern, covid_cases):
    tag = frozenset({pub_pattern("([40-50],M,Physics,Viral-Infection)")})
    out = saturate(tag, [covid_cases])
    assert pub_pattern("([40-50],M,Physics,CoVid)") in out
    assert tag <= out


def test_saturate_empty_tag(covid_cases):
    assert saturate(frozenset(), [covid_cases]) == frozenset()


def test_saturate_no_joinable_columns(pub_pattern, covid_cases):
    # wildcard Dept blocks the join: nothing to deduce
    tag = frozenset({pub_pattern("([40-50],M,*,Viral-Infection)")})
    assert saturate(tag, [covid_cases]) == tag


def test_saturate_count_above_one_does_not_refine(hospital, pub_pattern):
    cols = parse_columns(
        [
            {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
            {"name": "Gender", "class": "nominal", "group": "quasi-identifier"},
            {"name": "Count", "class": "numerical", "group": "quasi-identifier"},
            {"name": "Ailment", "class": "taxoral", "group": "sensitive",
             "taxonomy": "ailment"},
        ],
        hospital.schema.taxonomies,
    )
    table = load_table(
        "Dept,Gender,Count,Ailment\nPhysics,M,2,CoVid\n",
        cols, "counts2",
    )
    tag = frozenset({pub_pattern("([40-50],M,Physics,Viral-Infection)")})
    assert saturate(tag, [table]) == tag


@pytest.fixture(scope="module")
def staff_table(hospital):
    cols = parse_columns(
        [
            {"name": "Name", "class": "nominal", "group": "identifier"},
            {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
        ],
        hospital.schema.taxonomies,
    )
    return load_table(
        "Name,Dept\nJohn,Physics\nJoan,Chemistry\n",
        cols, "staff",
    )


def test_r1_identifier_join(hospital, main_pattern, staff_table):
    tag = frozenset({main_pattern("(John,*,M,*,*)")})
    out = saturate(tag, [staff_table], columns=hospital.schema.columns)
    assert main_pattern("(John,*,M,Physics,*)") in out


def test_r3_unique_linkage(hospital, main_pattern):
    published = hospital.table("published")
    tag = frozenset({main_pattern("(John,*,M,Physics,Viral-Infection)")})
    out = saturate(tag, [published], columns=hospital.schema.columns)
    # unique published row matches (M, Physics, Viral-Infection): l5
    merged = [
        p for p in out
        if p.cell("Age") is not None and not isinstance(p.cell("Age"), type(STAR))
    ]
    assert any(
        p.cell("Name") == Atom("John") and str(p.cell("Age")) == "[40-50]"
        for p in merged
    )


def test_r3_two_matches_block_linkage(hospital, main_pattern):
    published = hospital.table("published")
    # (M, Viral-Infection) matches both l4 and l5: no propagation
    tag = frozenset({main_pattern("(John,*,M,*,Viral-Infection)")})
    out = saturate(tag, [published], columns=hospital.schema.columns)
    assert out == tag


def test_saturate_idempotent_and_monotone(pub_pattern, covid_cases):
    t_small = frozenset({pub_pattern("([40-50],M,Physics,Viral-Infection)")})
    t_big = t_small | {pub_pattern("([20-30],F,Physics,Viral-Infection)")}
    s_small = saturate(t_small, [covid_cases])
    s_big = saturate(t_big, [covid_cases])
    assert saturate(s_small, [covid_cases]) == s_small
    assert s_small <= s_big


def test_saturate_round_budget(pub_pattern, covid_cases):
    tag = frozenset({pub_pattern("([40-50],M,Physics,Viral-Infection)")})
    with pytest.raises(InputError):
        saturate(tag, [covid_cases], max_rounds=0)


def test_check_consistency_policy_hit(hospital, main_pattern):
    policy = hospital.schema.policy
    tag = frozenset({TOP, main_pattern("(John,46,M,Physics,CoVid)")})
    assert not check_consistency(tag, policy)
    assert check_consistency(frozenset(), policy)
    assert check_consistency(frozenset({TOP}), policy)


def test_check_consistency_direct_contradiction(main_pattern):
    p = main_pattern("(John,*,M,*,*)")
    tag = frozenset({p, p.replace(negative=True)})
    assert not check_consistency(tag, PrivacyPolicy(()))


def test_check_consistency_wildcard_does_not_confirm(hospital, main_pattern):
    # Ailment still unknown: the policy cannot be confirmed violated
    tag = frozenset({main_pattern("(John,*,M,*,*)")})
    assert check_consistency(tag, hospital.schema.policy)


def test_inconsistency_persists_under_growth(hospital, main_pattern):
    policy = hospital.schema.policy
    tag = frozenset({main_pattern("(John,46,M,Physics,CoVid)")})
    bigger = tag | {main_pattern("(Joan,24,F,Chemistry,Heart-Disease)")}
    assert not check_consistency(tag, policy)
    assert not check_consistency(bigger, policy)


def _mini_builder(hospital, **kwargs):
    return DlttsBuilder(
        policy=hospital.schema.policy,
        externals=[hospital.table("covid_cases")],
        columns=hospital.schema.columns,
        **kwargs,
    )


def test_builder_pipeline_and_delta(hospital, main_pattern):
    b = _mini_builder(hospital)
    assert b.verdicts["s0"] is OracleVerdict.CONTINUE
    b.add_transition(
        "s0", "query:Gender",
        [("s2", F(1), Label("M:1", frozenset({"l2", "l4", "l5"}),
                            frozenset({main_pattern("(John,*,M,*,*)")})))],
    )
    assert b.verdicts["s2"] is OracleVerdict.CONTINUE
    b.add_transition(
        "s2", "query:Age",
        [
            ("s5", F(1, 3), Label("NotOld", frozenset({"l4"}), frozenset(
                {main_pattern("(John,[50-60],M,Maths,Viral-Infection)")}))),
            ("s6", F(2, 3), Label("NotOld", frozenset({"l5"}), frozenset(
                {main_pattern("(John,[40-50],M,Physics,Viral-Infection)")}))),
        ],
    )
    assert b.verdicts["s5"] is OracleVerdict.CONTINUE
    assert b.verdicts["s6"] is OracleVerdict.VIOLATION
    with pytest.raises(InputError):
        b.add_transition("s6", "query:More", [("s9", F(1), Label())])
    d = b.build()
    assert validate(d) == []
    reached, runs = reach_stop(d)
    assert reached
    assert runs[0].states == ("s0", "s2", "s6", "STOP")
    assert runs[0].probability == F(2, 3)


def test_oracle_epsilon_violation(hospital):
    published = hospital.table("published")
    l5 = published.row("l5")
    pattern = TuplePattern(tuple(c.name for c in published.columns), l5.cells)
    b = DlttsBuilder(
        policy=PrivacyPolicy(()),
        columns=published.columns,
        oracle=Oracle(F(0), (l5.cells,)),
    )
    b.add_transition("s0", "query", [("s1", F(1), Label(tuples=frozenset({pattern})))])
    assert b.verdicts["s1"] is OracleVerdict.EPSILON_VIOLATION
    d = b.build()
    assert any(t.action == DELTA and t.source == "s1" for t in d.transitions)


def test_oracle_epsilon_check_reads_only_positive_tuples(hospital):
    """Sibling states learn a secret row and its negation.  Only the first
    is an epsilon violation, though both add a tuple with the same cells."""
    published = hospital.table("published")
    l5 = published.row("l5")
    pattern = TuplePattern(tuple(c.name for c in published.columns), l5.cells)
    b = DlttsBuilder(columns=published.columns, oracle=Oracle(F(0), (l5.cells,)))
    b.add_transition("s0", "query", [
        ("s1", F(1, 2), Label(tuples=frozenset({pattern}))),
        ("s2", F(1, 2), Label(tuples=frozenset({pattern.replace(negative=True)}))),
    ])
    for state, verdict in [("s1", OracleVerdict.EPSILON_VIOLATION),
                           ("s2", OracleVerdict.CONTINUE)]:
        assert b.verdicts[state] is verdict
        assert oracle_verdict(b.saturated[state], b.policy, [l5.cells],
                              F(0)) is verdict


def test_oracle_rejects_stop(hospital):
    b = _mini_builder(hospital)
    assert "STOP" not in b.verdicts
    with pytest.raises(InputError):
        b.add_transition("s0", "q", [("STOP", F(1), Label())])


def test_builder_reserves_delta_for_the_oracle(hospital):
    b = _mini_builder(hospital)
    with pytest.raises(InputError, match="'delta' is reserved"):
        b.add_transition("s0", DELTA, [("STOP", F(1), Label())])
    assert b.transitions == []


def test_reach_stop_trivial_cases():
    single = Dltts("s0", "STOP", ())
    assert reach_stop(single) == (False, ())
    assert reach_stop(Dltts("STOP", "STOP", ())) == (True, (Run(("STOP",), (), F(1)),))
    no_delta = parse_dltts("s0 -> [(s1, 1, x)] act\n")
    assert reach_stop(no_delta)[0] is False


def _figure_one() -> Dltts:
    return parse_dltts(
        """
        initial: s0
        stop: STOP
        s0 -> [(s1, 1, M:0 {l1,l3})] query:Gender
        s0 -> [(s2, 1, M:1 {l2,l4,l5})] query:Gender
        s2 -> [(s3, 1, Covid:0 {l2})] query:Covid
        s2 -> [(s4, 1, Covid:1 {l4,l5})] query:Covid
        s4 -> [(s5, 1/3, NotOld {l4}), (s6, 2/3, NotOld {l5})] query:Age
        s6 -> [(STOP, 1, δ)] delta
        """
    )


def test_parse_figure_and_reach(hospital):
    d = _figure_one()
    assert validate(d) == []
    reached, runs = reach_stop(d)
    assert reached and len(runs) == 1
    assert runs[0].states == ("s0", "s2", "s4", "s6", "STOP")
    assert runs[0].probability == F(2, 3)


def render_dltts(dltts: Dltts) -> str:
    """Serialize back to the transcript format that `parse_dltts` reads."""
    out = [f"initial: {dltts.initial}", f"stop: {dltts.stop}"]
    for t in dltts.transitions:
        branches = []
        for b in t.branches:
            label = str(b.label)
            if b.label.source != "db":
                label = f"P_{b.label.source} {label}".strip()
            elif label:
                label = f"P_db {label}"
            branches.append(f"({b.to}, {b.prob}" + (f", {label})" if label else ")"))
        out.append(f"{t.source} -> [{', '.join(branches)}] {t.action}")
    return "\n".join(out) + "\n"


def test_render_parse_round_trip():
    d = _figure_one()
    again = parse_dltts(render_dltts(d))
    assert again.transitions == d.transitions
    assert again.states == d.states


def test_render_parse_round_trip_with_provenance():
    # profile-sourced branch labels (P_b markers) survive the round trip
    text = (SCENARIOS / "enterprise" / "attack_b.dltts").read_text()
    d = parse_dltts(text, "B")
    again = parse_dltts(render_dltts(d), "B")
    assert again.transitions == d.transitions
    sources = {b.label.source for t in d.transitions for b in t.branches}
    assert sources == {"db", "b"}


def test_run_tree_probabilities_sum_to_one():
    d = _figure_one()

    def mass(state, chooser):
        outs = d.outgoing(state)
        if not outs:
            return F(1)
        t = outs[chooser % len(outs)]
        return sum(b.prob * mass(b.to, chooser) for b in t.branches)

    for chooser in (0, 1):
        assert mass(d.initial, chooser) == 1


def test_validate_rejects_each_mutation():
    d = _figure_one()
    assert validate(d) == []

    # probability sum broken
    t = d.transitions[4]
    bad_branches = (t.branches[0].replace(prob=F(1, 2)),) + t.branches[1:]
    bad = d.replace(transitions=d.transitions[:4] + (t.replace(branches=bad_branches),) + d.transitions[5:])
    assert any("sum" in p for p in validate(bad))

    # outgoing edge from Stop
    extra = Transition("STOP", "query", (Branch("s1", F(1), Label()),))
    bad = d.replace(transitions=d.transitions + (extra,))
    assert any("Stop has an outgoing" in p for p in validate(bad))

    # duplicated distribution from one state
    bad = d.replace(transitions=d.transitions + (d.transitions[0],))
    assert any("share one distribution" in p for p in validate(bad))

    # delta with probability != 1 is impossible by type (prob sums to 1 with
    # one branch), so break the delta target instead
    t = d.transitions[5]
    bad_delta = t.replace(branches=(t.branches[0].replace(to="s1"),))
    bad = d.replace(transitions=d.transitions[:5] + (bad_delta,))
    assert any("delta" in p for p in validate(bad))

    # non-positive probability
    t = d.transitions[4]
    bad_branches = (
        t.branches[0].replace(prob=F(0)),
        t.branches[1].replace(prob=F(1)),
    )
    bad = d.replace(transitions=d.transitions[:4] + (t.replace(branches=bad_branches),) + d.transitions[5:])
    assert any("non-positive" in p for p in validate(bad))


@pytest.fixture(scope="module")
def viral_mechanism():
    return Mechanism.from_rows(
        "viral_query",
        {
            "l4": {"Viral-Infection": F(1, 3), "no-answer": F(2, 3)},
            "l5": {"Viral-Infection": F(2, 3), "no-answer": F(1, 3)},
        },
    )


def test_epsilon_equivalent_labels_figure_state(viral_mechanism):
    from privtrace.indist import parse_epsilon

    d = _figure_one()
    classes = epsilon_equivalent_labels(
        d, "s4", viral_mechanism, parse_epsilon("ln(2)"), alpha="Viral-Infection"
    )
    assert len(classes) == 1 and len(classes[0]) == 2
    classes0 = epsilon_equivalent_labels(
        d, "s4", viral_mechanism, 0.0, alpha="Viral-Infection"
    )
    assert len(classes0) == 2


def test_epsilon_equivalent_single_branch(viral_mechanism):
    d = parse_dltts("s0 -> [(s1, 1, x {l4})] act\n")
    classes = epsilon_equivalent_labels(
        d, "s0", viral_mechanism, 0.0, alpha="Viral-Infection"
    )
    assert len(classes) == 1 and len(classes[0]) == 1


def test_epsilon_equivalent_labels_at_a_leaf_and_with_alpha_inferred(viral_mechanism):
    """A state with no outgoing branch has no labels to class; with no
    alpha given, the one output both instances can give is taken."""
    d = _figure_one()
    assert epsilon_equivalent_labels(d, "s5", viral_mechanism, 0.0) == []
    m = Mechanism.from_rows("m", {"l4": {"v": F(1, 2), "a": F(1, 2)},
                                  "l5": {"v": F(1, 4), "b": F(3, 4)}})
    classes = epsilon_equivalent_labels(d, "s4", m, 0.0)
    assert classes == epsilon_equivalent_labels(d, "s4", m, 0.0, alpha="v")
    assert len(classes) == 2


def test_epsilon_equivalent_explicit_instance_mapping(viral_mechanism):
    # labels carry no line ids, and their texts name no mechanism input
    d = parse_dltts("s0 -> [(s1, 1/3, old-answer), (s2, 2/3, young-answer)] act\n")
    with pytest.raises(InputError):
        epsilon_equivalent_labels(
            d, "s0", viral_mechanism, 0.0, alpha="Viral-Infection"
        )


def union_find_classes(labels, mechanism, instances, alpha, epsilon):
    """Label classes by union-find over every label pair: the all-pairs
    algorithm the sorted-run partition replaced."""
    parent = {label: label for label in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if is_eps_indistinguishable(
                mechanism, instances[a], instances[b], alpha, epsilon
            ):
                parent[find(a)] = find(b)
    groups = {}
    for label in labels:
        groups.setdefault(find(label), []).append(label)
    return [frozenset(g) for g in groups.values()]


_EPSILONS = (
    0.0, F(0), F(1, 4), F(1, 2), F(1), F(3),
    EpsilonResult(scale=F(1), ratio=F(2)),
    EpsilonResult(scale=F(1), ratio=F(3, 2)),
    EpsilonResult(scale=F(1, 2), ratio=F(3)),
    EpsilonResult(unbounded=True),
)


def test_label_classes_match_union_find_over_all_pairs():
    rng = random.Random(408)
    for _ in range(500):
        inputs = [f"v{i}" for i in range(rng.randint(1, 7))]
        weights = {v: rng.choice((0, 0, 1, 1, 2, 3, 4, 6)) for v in inputs}
        mechanism = Mechanism.from_rows("m", {
            v: {"a": F(w, 6), "b": 1 - F(w, 6)} for v, w in weights.items()
        })
        # some inputs answer on two branches, some states have two transitions
        texts = [rng.choice(inputs) for _ in range(rng.randint(1, 8))]
        builder = DlttsBuilder()
        cut = rng.randint(1, len(texts))
        for k, chunk in enumerate((texts[:cut], texts[cut:])):
            if chunk:
                builder.add_transition("s0", f"q{k}", [
                    (f"s{k}_{i}", F(1, len(chunk)), Label(text=t))
                    for i, t in enumerate(chunk)
                ])
        dltts = builder.build()
        labels = list(dict.fromkeys(b.label for t in dltts.outgoing("s0")
                                    for b in t.branches))
        instances = {label: label.text for label in labels}
        epsilon = rng.choice(_EPSILONS)
        assert epsilon_equivalent_labels(
            dltts, "s0", mechanism, epsilon, alpha="a"
        ) == union_find_classes(labels, mechanism, instances, "a", epsilon)


def test_builder_rejects_bad_probability_sums(hospital):
    b = _mini_builder(hospital)
    with pytest.raises(InputError):
        b.add_transition(
            "s0", "q",
            [("a", F(1, 2), Label()), ("b", F(1, 3), Label())],
        )
