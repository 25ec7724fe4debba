"""Attack trees over an anonymized table: building them from attacker
profiles, loading published transcripts verbatim, multiset-priority access
probabilities, success thresholds, and the response-blocking strategy.

A built tree queries one quasi-identifier per level; branch probabilities
come from the profile's priors restricted to the values actually present
(renormalized) and fall back to the database's conditional frequencies.
Every node whose incoming label is a singleton {l} carries a response(l)
switch, ON by default; the protection strategy turns a switch OFF when the
attacker's access probability at that node beats the baseline's threshold.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .lts import Branch, Dltts, Label, Transition, parse_dltts
from .schema import DataTable
from .values import Record, Value, render_cell


class AttackError(ValueError):
    pass


def _priority_key(probs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sorted(probs, reverse=True))


class AttackerProfile(Record):
    """An attacker: the order it queries attributes in, its prior per
    attribute value (none when left out), its stated objective, and whether
    its priors are the database distribution itself."""

    name: str
    attribute_order: tuple[str, ...]
    priors: Mapping[str, Mapping[Value, Fraction]] | None = None
    objective: str = ""
    empirical: bool = False

    def _check(self) -> None:
        if self.priors is None:
            object.__setattr__(self, "priors", {})
        for col, table in self.priors.items():
            total = sum(table.values(), Fraction(0))
            if total != 1:
                raise AttackError(
                    f"profile {self.name}: priors for {col} sum to {total}, not 1"
                )


_RESPONSE_RE = re.compile(r"^response\((\w+)\)$")
_RESPONSE_LABEL_RE = re.compile(r"response\((\w+)\)\s*=\s*(\S+)")


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
        """(node, line) for every node whose incoming label is {line}."""
        out: dict[tuple[str, str], None] = {}
        for t in self.dltts.transitions:
            if _response_line(t.action):
                continue
            for b in t.branches:
                if len(b.label.lines) == 1:
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


def _sensitive_value(db: DataTable, line_id: str) -> str:
    for i, col in enumerate(db.columns):
        if col.group == "sensitive":
            return render_cell(db.row(line_id).cells[i])
    raise AttackError(f"table {db.name} has no sensitive column")


def build_attack_dltts(db: DataTable, profile: AttackerProfile) -> AttackDltts:
    """One query level per profile attribute, then a uniform split to
    singleton leaves, then a response(l) transition at every
    singleton-labeled node."""
    qid_names = {c.name for c in db.columns if c.group == "quasi-identifier"}
    for col in profile.attribute_order:
        if col not in qid_names:
            raise AttackError(f"profile {profile.name}: {col!r} is not a qid column")
    for col, table in profile.priors.items():
        idx = db.column_index(col)
        present = {row.cells[idx] for row in db.rows}
        missing = present - set(table)
        if missing:
            raise AttackError(
                f"profile {profile.name}: no prior for {col} value(s) "
                f"{sorted(map(str, missing))}"
            )

    transitions: list[Transition] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"s{counter[0]}"

    def level_branches(col: str, rows) -> list[tuple[Value, Fraction, str]]:
        values: list[Value] = []
        idx = db.column_index(col)
        for row in rows:
            if row.cells[idx] not in values:
                values.append(row.cells[idx])
        if len(values) == 1:
            return [(values[0], Fraction(1), "db")]
        priors = profile.priors.get(col)
        if priors is not None:
            total = sum((priors[v] for v in values), Fraction(0))
            source = "db" if profile.empirical else profile.name
            return [(v, priors[v] / total, source) for v in values]
        n = len(rows)
        return [
            (v, Fraction(sum(1 for r in rows if r.cells[idx] == v), n), "db")
            for v in values
        ]

    def expand(state: str, rows, depth: int) -> None:
        if depth == len(profile.attribute_order):
            if len(rows) <= 1:
                return
            prob = Fraction(1, len(rows))
            branches = [
                Branch(fresh(), prob, Label(lines=frozenset({r.line_id})))
                for r in rows
            ]
            transitions.append(Transition(state, "pick", tuple(branches)))
            return
        col = profile.attribute_order[depth]
        idx = db.column_index(col)
        branches = []
        groups = []
        for v, prob, source in level_branches(col, rows):
            matching = [r for r in rows if r.cells[idx] == v]
            label = Label(
                text=f"{col}={render_cell(v)}",
                lines=frozenset(r.line_id for r in matching),
                source=source,
            )
            child = fresh()
            branches.append(Branch(child, prob, label))
            groups.append((child, matching))
        transitions.append(Transition(state, f"query:{col}", tuple(branches)))
        for child, matching in groups:
            expand(child, matching, depth + 1)

    expand("s0", list(db.rows), 0)

    responses: list[ResponseEdge] = []
    seen: set[tuple[str, str]] = set()
    for t in list(transitions):
        for b in t.branches:
            if len(b.label.lines) != 1:
                continue
            line = next(iter(b.label.lines))
            if (b.to, line) in seen:
                continue
            seen.add((b.to, line))
            transition, edge = _response_switch(b.to, line, _sensitive_value(db, line))
            transitions.append(transition)
            responses.append(edge)

    dltts = Dltts(initial="s0", stop="STOP", transitions=tuple(transitions))
    return AttackDltts(name=profile.name, dltts=dltts, responses=tuple(responses))


def load_attack_dltts(text: str, name: str = "attack") -> AttackDltts:
    """Load a transcript verbatim; nodes drawn with a singleton incoming
    label but no response edge get one synthesized (flagged `assumed`), so
    the response-switch invariant holds on published diagrams too."""
    dltts = parse_dltts(text, name)
    responses: list[ResponseEdge] = []
    drawn: set[tuple[str, str]] = set()
    line_values: dict[str, str] = {}
    for t in dltts.transitions:
        line = _response_line(t.action)
        if line is None:
            continue
        if len(t.branches) != 1 or t.branches[0].prob != 1:
            raise AttackError(f"{name}: response at {t.source} must go one way, p=1")
        m = _RESPONSE_LABEL_RE.search(t.branches[0].label.text)
        value = m.group(2) if m else "?"
        responses.append(ResponseEdge(t.source, line, value, t.branches[0].to))
        drawn.add((t.source, line))
        line_values.setdefault(line, value)

    transitions = list(dltts.transitions)
    preliminary = AttackDltts(name=name, dltts=dltts, responses=tuple(responses))
    for node, line in preliminary.singleton_nodes():
        if (node, line) in drawn:
            continue
        drawn.add((node, line))
        transition, edge = _response_switch(
            node, line, line_values.get(line, "?"), assumed=True
        )
        transitions.append(transition)
        responses.append(edge)
    dltts = dltts.replace(transitions=tuple(transitions))
    return AttackDltts(name=name, dltts=dltts, responses=tuple(responses))


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
    recovery.  Requires an acyclic system.  Read it through `attack._runs`."""
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
            raise AttackError("attack system has a cycle")
        onstack.add(state)
        todo.append((state, True))
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


def threshold_report(
    attack: AttackDltts,
) -> dict[tuple[str, str], Fraction]:
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


def _baseline_threshold(
    baseline: AttackDltts,
    line: str,
    baseline_max: Mapping[str, Fraction] | None,
) -> Fraction:
    if baseline_max is not None and line in baseline_max:
        return Fraction(baseline_max[line])
    return max_pr(baseline, line)


class StrategyDecision(Record):
    """The blocking strategy's ruling on one response: its access
    probability, the baseline it was held against, and whether it was
    switched off."""

    node: str
    line: str
    probability: Fraction
    baseline: Fraction
    switched_off: bool


def apply_strategy(
    attack: AttackDltts,
    baseline: AttackDltts,
    *,
    baseline_max: Mapping[str, Fraction] | None = None,
) -> tuple[AttackDltts, list[StrategyDecision]]:
    """Switch OFF response(l) at every singleton node where the attacker's
    priority-run probability strictly exceeds the baseline threshold;
    everything else stays ON.  Returns the updated system and the full
    decision list."""
    best, _ = attack._runs
    decisions = []
    off = set(attack.off)
    for node, line in attack.singleton_nodes():
        pr = best.get(node, Fraction(0))
        base = _baseline_threshold(baseline, line, baseline_max)
        blocked = pr > base
        if blocked:
            off.add((node, line))
        decisions.append(StrategyDecision(node, line, pr, base, blocked))
    return attack.replace(off=frozenset(off)), decisions


def attack_problems(attack: AttackDltts, db: DataTable | None = None) -> list[str]:
    """Consistency of an attack tree: branch probabilities sum to 1, sibling
    label sets partition the parent's label set (root: the table's lines
    when a table is given), responses exist exactly at singleton nodes."""
    problems = []
    dltts = attack.dltts
    incoming_lines: dict[str, frozenset[str]] = {}
    if db is not None:
        incoming_lines[dltts.initial] = frozenset(db.line_ids())
    for t in dltts.transitions:
        if _response_line(t.action):
            continue
        for b in t.branches:
            incoming_lines[b.to] = b.label.lines
    for t in dltts.transitions:
        total = sum((b.prob for b in t.branches), Fraction(0))
        if total != 1:
            problems.append(f"{t.source}: branch probabilities sum to {total}")
        if _response_line(t.action):
            continue
        parent = incoming_lines.get(t.source)
        if parent is None:
            continue
        union: set[str] = set()
        for b in t.branches:
            if union & b.label.lines:
                problems.append(f"{t.source}: sibling label sets overlap")
            union |= b.label.lines
        if union != set(parent):
            problems.append(
                f"{t.source}: children {sorted(union)} do not partition "
                f"{sorted(parent)}"
            )
    response_nodes = {(e.node, e.line) for e in attack.responses}
    singles = set(attack.singleton_nodes())
    for node, line in singles - response_nodes:
        problems.append(f"{node}: singleton {{{line}}} has no response switch")
    for node, line in response_nodes - singles:
        problems.append(f"{node}: response({line}) at a non-singleton node")
    return problems
