"""The indexed, cached, explicit-stack graph walks, and the runs to Stop
read off a tree's parent links, against the recursive, uncached walks they
replaced, which live on here as oracles."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import count

import pytest

import privtrace.attack as attack_mod
from privtrace.attack import (
    StrategyDecision,
    _active_transitions,
    _first_condition,
    _priority_key,
    apply_strategy,
    load_attack_dltts,
    max_pr,
    threshold_report,
)
from privtrace.dltts import Run, reach_stop
from privtrace.lts import DELTA, Branch, Dltts, Transition
from privtrace.records import InputError
from privtrace.scenario import load_scenario, run_scenario
from privtrace.transcript import parse_dltts

from conftest import SCENARIOS


# -- oracles: the recursive walks over a linear-scan `outgoing` -------------

def _scan_outgoing(dltts, state):
    return tuple(t for t in dltts.transitions if t.source == state)


def oracle_priority_runs(attack):
    dltts = attack.dltts
    order: list[str] = []
    seen: set[str] = set()
    onstack: set[str] = set()

    def visit(state):
        if state in seen:
            return
        if state in onstack:
            raise InputError("attack system has a cycle")
        onstack.add(state)
        for t in _scan_outgoing(dltts, state):
            for b in t.branches:
                visit(b.to)
        onstack.discard(state)
        seen.add(state)
        order.append(state)

    visit(dltts.initial)
    best = {dltts.initial: F(1)}
    pred = {}
    for state in reversed(order):
        if state not in best:
            continue
        active = _active_transitions(attack, state)
        if not active:
            continue
        top = max(_priority_key(b.prob for b in t.branches) for t in active)
        for t in active:
            if _priority_key(b.prob for b in t.branches) != top:
                continue
            for b in t.branches:
                p = best[state] * b.prob
                if p > best.get(b.to, F(0)):
                    best[b.to] = p
                    pred[b.to] = (state, b)
    return best, pred


def oracle_max_pr(attack, best, line):
    out = F(0)
    for node, node_line in attack.singleton_nodes():
        if node_line == line:
            out = max(out, best.get(node, F(0)))
    return out


def oracle_threshold_report(attack, best, pred):
    report = {}
    for edge in attack.responses:
        pr = best.get(edge.node, F(0))
        key = (edge.value, _first_condition(pred, edge.node))
        if key not in report or pr > report[key]:
            report[key] = pr
    return report


def oracle_decisions(attack, best, baseline_max_pr, baseline_max):
    out = []
    for node, line in attack.singleton_nodes():
        pr = best.get(node, F(0))
        if baseline_max is not None and line in baseline_max:
            base = F(baseline_max[line])
        else:
            base = baseline_max_pr[line]
        out.append(StrategyDecision(node, line, pr, base, pr > base))
    return out


def oracle_reach_stop(dltts):
    runs = []

    def walk(state, path, actions, prob, seen):
        if state == dltts.stop:
            runs.append(Run(tuple(path), tuple(actions), prob))
            return
        for t in _scan_outgoing(dltts, state):
            for b in t.branches:
                if b.to in seen:
                    continue
                walk(b.to, path + [b.to], actions + [t.action],
                     prob * b.prob, seen | {b.to})

    walk(dltts.initial, [dltts.initial], [], F(1), {dltts.initial})
    runs.sort(key=lambda r: (-r.probability, r.states))
    return (bool(runs), tuple(runs))


# -- random acyclic transcripts ---------------------------------------------

LINES = ("l1", "l2", "l3", "l4")


def random_transcript(rng: random.Random) -> str:
    """A DAG over s0..s{n-1}: a random spanning tree, a few extra edges into
    already-reached states (shared targets), parallel transitions between
    one pair of states, some edges into Stop and some drawn response edges
    (the rest are synthesized on loading).  Branch weights come from a
    small set, so priority keys and run probabilities often tie."""
    n = rng.randint(2, 40)
    targets: list[list[str]] = [[] for _ in range(n)]
    for i in range(1, n):
        targets[rng.randrange(i)].append(f"s{i}")
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(n - 1)
        targets[i].append(f"s{rng.randint(i + 1, n - 1)}")
    transitions: list[tuple[int, list[str]]] = []
    for i, outs in enumerate(targets):
        rng.shuffle(outs)
        while outs:
            k = rng.randint(1, len(outs))
            transitions.append((i, list(dict.fromkeys(outs[:k]))))
            outs = outs[k:]
        if rng.random() < 0.15:
            transitions.append((i, ["STOP"]))
    for _ in range(rng.randint(0, 2)):
        i, outs = rng.choice(transitions)
        transitions.append((i, [rng.choice(outs)] + outs[:rng.randint(0, 1)]))
    lines = ["initial: s0"]
    for source, outs in transitions:
        outs = list(dict.fromkeys(outs))
        weights = [rng.choice((1, 1, 2, 3)) for _ in outs]
        total = sum(weights)
        branches = []
        for to, w in zip(outs, weights):
            if rng.random() < 0.6:
                chosen = [rng.choice(LINES)]
            else:
                chosen = rng.sample(LINES, rng.randint(2, 4))
            text = f"c=v{rng.randint(0, 2)} {{{','.join(chosen)}}}"
            branches.append(f"({to}, {F(w, total)}, P_db {text})")
        lines.append(f"s{source} -> [{', '.join(branches)}] q{rng.randint(0, 1)}")
    for k in range(rng.randint(0, 2)):
        line = rng.choice(LINES)
        lines.append(f"s{rng.randrange(n)} -> [(r{k}, 1, P_db response({line})="
                     f"{rng.randint(1, 3)})] response({line})")
    return "\n".join(lines) + "\n"


def random_attack(rng: random.Random, name: str):
    attack = load_attack_dltts(random_transcript(rng), name)
    singles = attack.singleton_nodes()
    off = frozenset(s for s in singles if rng.random() < 0.3)
    return attack, attack.replace(off=off)


def test_walks_match_the_recursive_uncached_oracles():
    rng = random.Random(20251017)
    baseline = None
    for case in range(1000):
        plain, switched = random_attack(rng, f"a{case}")
        # Each system is the next one's baseline.
        baseline = baseline or switched
        declared = (
            None if rng.random() < 0.5
            else {l: F(rng.randint(0, 4), 8) for l in rng.sample(LINES, 2)}
        )
        base_best, _ = oracle_priority_runs(baseline)
        base_max = {l: oracle_max_pr(baseline, base_best, l) for l in LINES}
        # The plain system is walked first: a cache that survived
        # `.replace(off=...)` would hand its runs to the switched one.
        for attack in (plain, switched):
            best, pred = oracle_priority_runs(attack)
            assert attack._runs == (best, pred), case
            for line in LINES:
                assert max_pr(attack, line) == oracle_max_pr(attack, best, line), case
            assert list(threshold_report(attack).items()) == list(
                oracle_threshold_report(attack, best, pred).items()), case
            updated, decisions = apply_strategy(
                attack, baseline, baseline_max=declared)
            assert decisions == oracle_decisions(
                attack, best, base_max, declared), case
            assert updated.off == attack.off | {
                (d.node, d.line) for d in decisions if d.switched_off}
        baseline = switched


def random_tree_dltts(rng: random.Random) -> Dltts:
    """A tree grown as the builder grows one: each transition leaves a
    state already made, and each of its branches enters a new state or
    Stop.  Some states take several transitions, some transitions branch
    into Stop more than once, and branch weights come from a small set, so
    runs often tie.  Now and then a part that the initial state does not
    reach is added: a chain from a state nothing enters, or a loop, each
    with a branch into Stop.  The transitions are shuffled."""
    made, serial, transitions = ["s0"], count(1), []
    for _ in range(rng.randint(0, 12)):
        source = rng.choice(made)
        outs = [f"s{next(serial)}" if rng.random() < 0.8 else "STOP"
                for _ in range(rng.randint(1, 3))]
        made += [to for to in outs if to != "STOP"]
        weights = [rng.choice((1, 1, 2, 3)) for _ in outs]
        transitions.append(Transition(source, rng.choice(("q0", "q1", DELTA)), tuple(
            Branch(to, F(w, sum(weights))) for to, w in zip(outs, weights))))
    if rng.random() < 0.2:
        transitions += [Transition("u0", "q0", (Branch("u1", F(1)),)),
                        Transition("u1", DELTA, (Branch("STOP", F(1)),))]
    if rng.random() < 0.2:
        transitions += [Transition("v0", "q0", (Branch("v1", F(1)),)),
                        Transition("v1", "q0", (Branch("v0", F(1, 2)),
                                                Branch("STOP", F(1, 2))))]
    rng.shuffle(transitions)
    return Dltts("s0", "STOP", tuple(transitions))


def test_reach_stop_matches_the_oracle_on_random_trees():
    rng = random.Random(20261019)
    reached = 0
    for case in range(3000):
        dltts = random_tree_dltts(rng)
        got = reach_stop(dltts)
        assert got == oracle_reach_stop(dltts), case
        reached += got[0]
    assert 1000 < reached < 3000


@pytest.mark.parametrize("text, state", [
    # a diamond: s3 is entered from s1 and from s2
    ("s0 -> [(s1, 1/2), (s2, 1/2)] q\ns1 -> [(s3, 1)] q\ns2 -> [(s3, 1)] q\n"
     "s3 -> [(STOP, 1)] delta\n", "s3"),
    # a branch back into the initial state
    ("s0 -> [(s1, 1)] q\ns1 -> [(s0, 1/2), (STOP, 1/2)] q\n", "s0"),
])
def test_reach_stop_refuses_a_state_entered_twice(text, state):
    """A system that is not a tree gets no answer rather than a wrong one."""
    with pytest.raises(InputError, match=f"state '{state}' is entered twice"):
        reach_stop(parse_dltts(text))


@pytest.mark.parametrize("delta", [False, True])
def test_reach_stop_takes_linear_time_on_a_long_chain(delta):
    n = 16_000
    transitions = tuple(
        Transition(f"s{i}", "q", (Branch(f"s{i + 1}", F(1)),)) for i in range(n)
    ) + ((Transition(f"s{n}", DELTA, (Branch("STOP", F(1)),)),) if delta else ())
    dltts = Dltts("s0", "STOP", transitions)
    start = time.perf_counter()
    reached, runs = reach_stop(dltts)
    assert time.perf_counter() - start < 1
    assert reached is delta
    assert [len(r.states) for r in runs] == ([n + 2] if delta else [])


def test_cycle_is_reported_like_the_oracle():
    text = "initial: s0\ns0 -> [(s1, 1, x {l1})] q\ns1 -> [(s0, 1, y)] q\n"
    attack = load_attack_dltts(text)
    with pytest.raises(InputError, match="cycle"):
        oracle_priority_runs(attack)
    with pytest.raises(InputError, match="cycle"):
        max_pr(attack, "l1")


def test_enterprise_analyze_walks_each_attack_system_once(monkeypatch):
    passes: dict[int, int] = {}
    real_runs = attack_mod._priority_runs

    def counted(attack):
        passes[id(attack)] = passes.get(id(attack), 0) + 1
        return real_runs(attack)

    max_pr_calls = []
    real_max_pr = attack_mod.max_pr

    def counted_max_pr(attack, line):
        max_pr_calls.append(line)
        return real_max_pr(attack, line)

    monkeypatch.setattr(attack_mod, "_priority_runs", counted)
    monkeypatch.setattr(attack_mod, "max_pr", counted_max_pr)
    scenario = load_scenario(SCENARIOS / "enterprise" / "scenario.json")
    run_scenario(scenario)
    assert sorted(passes.values()) == [1, 1, 1]
    assert max_pr_calls
