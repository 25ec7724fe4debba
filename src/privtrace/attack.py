"""Attack trees over an anonymized table: loading published transcripts
verbatim, multiset-priority access probabilities, success thresholds, and
the response-blocking strategy.  Trees built from attacker profiles live
in `profiles`, which only profiles, `attack --built` and `validate` load.

Every node whose incoming label is a singleton {l} carries a response(l)
switch, ON by default; the protection strategy turns a switch OFF when the
attacker's access probability at that node beats the baseline's threshold.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .lts import Branch, Dltts, Label, Transition, transition_problems
from .records import InputError, Record
from .transcript import parse_dltts


def _priority_key(probs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sorted(probs, reverse=True))


# A line id is free text, so a switch names any text in its parentheses.
_RESPONSE_RE = re.compile(r"^response\((.+)\)$")
_RESPONSE_LABEL_RE = re.compile(r"response\(.+\)\s*=\s*(\S+)")


def _response_line(action: str) -> str | None:
    m = _RESPONSE_RE.match(action)
    return m.group(1) if m else None


class ResponseEdge(Record):
    """A response switch: at `node`, the response for `line` with `value`
    leads to `target`; `assumed` marks one synthesized from a label."""

    node: str
    line: str
    value: str
    target: str
    assumed: bool = False


class AttackDltts(Record):
    """An attack tree plus its response switches (OFF set) and provenance."""

    name: str
    dltts: Dltts
    responses: tuple[ResponseEdge, ...]
    off: frozenset[tuple[str, str]] = frozenset()

    def switched_on(self, node: str, line: str) -> bool:
        return (node, line) not in self.off

    @cached_property
    def _runs(self) -> tuple[dict[str, Fraction], dict[str, tuple[str, Branch]]]:
        """The priority-run pass, once per system: `.replace(off=...)` makes
        a new system, so the cache never outlives a change of switches."""
        return _priority_runs(self)

    @cached_property
    def _max_pr(self) -> dict[str, Fraction]:
        """`max_pr` of every line that labels a singleton node."""
        best, _ = self._runs
        out: dict[str, Fraction] = {}
        for node, line in self.singleton_nodes():
            out[line] = max(out.get(line, Fraction(0)), best.get(node, Fraction(0)))
        return out

    def singleton_nodes(self) -> tuple[tuple[str, str], ...]:
        """(node, line) for every node but Stop whose incoming label is
        {line}: Stop has no outgoing transition, so no response switch."""
        out: dict[tuple[str, str], None] = {}
        for t in self.dltts.transitions:
            if _response_line(t.action):
                continue
            for b in t.branches:
                if len(b.label.lines) == 1 and b.to != self.dltts.stop:
                    out[(b.to, next(iter(b.label.lines)))] = None
        return tuple(out)


def _response_switch(
    node: str, line: str, value: str, assumed: bool = False
) -> tuple[Transition, ResponseEdge]:
    """The `response(line)` transition at `node` and its switch; only a
    synthesized (`assumed`) one takes "assumed" as its label's source."""
    target = f"{node}r"
    label = Label(text=f"response({line})={value}",
                  source="assumed" if assumed else "db")
    return (
        Transition(node, f"response({line})", (Branch(target, Fraction(1), label),)),
        ResponseEdge(node, line, value, target, assumed),
    )


def _switched(name: str, dltts: Dltts, responses: Iterable[ResponseEdge],
              value_of: Callable[[str], str], assumed: bool) -> AttackDltts:
    """The attack system `name` over `dltts` and its drawn `responses`, plus
    a response switch, of value `value_of(line)`, at every singleton node
    that has none."""
    responses = list(responses)
    drawn = {(edge.node, edge.line) for edge in responses}
    transitions = list(dltts.transitions)
    for node, line in AttackDltts(name, dltts, ()).singleton_nodes():
        if (node, line) not in drawn:
            transition, edge = _response_switch(node, line, value_of(line), assumed)
            transitions.append(transition)
            responses.append(edge)
    dltts = dltts.replace(transitions=tuple(transitions))
    return AttackDltts(name=name, dltts=dltts, responses=tuple(responses))


def load_attack_dltts(text: str, name: str = "attack") -> AttackDltts:
    """Load a transcript verbatim; nodes drawn with a singleton incoming
    label but no response edge get one synthesized (flagged `assumed`), so
    the response-switch invariant holds on published diagrams too."""
    dltts = parse_dltts(text, name)
    responses: list[ResponseEdge] = []
    line_values: dict[str, str] = {}
    for t in dltts.transitions:
        line = _response_line(t.action)
        if line is None:
            continue
        if len(t.branches) != 1 or t.branches[0].prob != 1:
            raise InputError(f"{name}: response at {t.source} must go one way, p=1")
        m = _RESPONSE_LABEL_RE.search(t.branches[0].label.text)
        value = m.group(1) if m else "?"
        responses.append(ResponseEdge(t.source, line, value, t.branches[0].to))
        line_values.setdefault(line, value)
    return _switched(name, dltts, responses,
                     lambda line: line_values.get(line, "?"), assumed=True)


def _active_transitions(attack: AttackDltts, state: str) -> list[Transition]:
    out = []
    for t in attack.dltts.outgoing(state):
        line = _response_line(t.action)
        if line is not None and not attack.switched_on(state, line):
            continue
        out.append(t)
    return out


def _priority_runs(
    attack: AttackDltts,
) -> tuple[dict[str, Fraction], dict[str, tuple[str, Branch]]]:
    """Best run probability per state, restricted at every choice point to
    the priority-maximal outgoing transitions; predecessors for path
    recovery.  Requires an acyclic system whose transitions, response
    switches included, keep `lts`'s rules (else InputError names it).
    Read it through `attack._runs`."""
    dltts = attack.dltts
    # Depth-first post-order with an explicit stack; a `True` entry closes
    # its state once every child pushed above it is done.
    order: list[str] = []
    seen: set[str] = set()
    onstack: set[str] = set()
    todo = [(dltts.initial, False)]
    while todo:
        state, closing = todo.pop()
        if closing:
            onstack.discard(state)
            seen.add(state)
            order.append(state)
            continue
        if state in seen:
            continue
        if state in onstack:
            raise InputError("attack system has a cycle")
        onstack.add(state)
        todo.append((state, True))
        for t in dltts.outgoing(state):
            problem = next(transition_problems(t, dltts.stop), None)
            if problem is not None:
                raise InputError(f"{attack.name}: {problem}")
        todo.extend(reversed(
            [(b.to, False) for t in dltts.outgoing(state) for b in t.branches]
        ))
    best: dict[str, Fraction] = {dltts.initial: Fraction(1)}
    pred: dict[str, tuple[str, Branch]] = {}
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
                if p > best.get(b.to, Fraction(0)):
                    best[b.to] = p
                    pred[b.to] = (state, b)
    return best, pred


def max_pr(attack: AttackDltts, line: str) -> Fraction:
    """The max probability, over every node whose incoming label is {line},
    of reaching it from the root along runs that take only priority-maximal
    transitions at every choice point; 0 when the line labels no singleton
    node."""
    return attack._max_pr.get(line, Fraction(0))


def _first_condition(pred: Mapping[str, tuple[str, Branch]], node: str) -> str:
    """The first query condition on the best run to `node`; the value part
    of `col=value` labels, matching the published report keys."""
    path: list[Branch] = []
    cur = node
    while cur in pred:
        state, branch = pred[cur]
        path.append(branch)
        cur = state
    if not path:
        return ""
    text = path[-1].label.text
    return text.split("=", 1)[1] if "=" in text else text


def threshold_report(attack: AttackDltts) -> dict[tuple[str, str], Fraction]:
    """Per (response value, first query condition): the maximal priority-run
    probability of reaching a response node answering with that value."""
    best, pred = attack._runs
    report: dict[tuple[str, str], Fraction] = {}
    for edge in attack.responses:
        pr = best.get(edge.node, Fraction(0))
        key = (edge.value, _first_condition(pred, edge.node))
        if key not in report or pr > report[key]:
            report[key] = pr
    return report


class StrategyDecision(Record):
    """The blocking strategy's ruling on one response: its access
    probability, the baseline it was held against, and whether it was
    switched off."""

    node: str
    line: str
    probability: Fraction
    baseline: Fraction
    switched_off: bool


def apply_strategy(attack: AttackDltts, baseline: AttackDltts, *,
                   baseline_max: Mapping[str, Fraction] | None = None,
                   ) -> tuple[AttackDltts, list[StrategyDecision]]:
    """Switch OFF response(l) at every singleton node where the attacker's
    priority-run probability strictly exceeds the baseline threshold, the
    line's `baseline_max` entry if it has one, else its `max_pr` in
    `baseline`; everything else stays ON.  Returns the updated system and
    the full decision list."""
    best, _ = attack._runs
    decisions = []
    off = set(attack.off)
    for node, line in attack.singleton_nodes():
        pr = best.get(node, Fraction(0))
        base = (Fraction(baseline_max[line]) if baseline_max and line in baseline_max
                else max_pr(baseline, line))
        blocked = pr > base
        if blocked:
            off.add((node, line))
        decisions.append(StrategyDecision(node, line, pr, base, blocked))
    return attack.replace(off=frozenset(off)), decisions
