"""Probabilistic labelled transition systems: the core under the tags.

A system has a distinguished initial state, probabilistic transitions whose
branches carry labels (what each possible answer teaches), and a Stop state
reached only through the violation action `delta`.  The attack trees use
this core alone; `dltts` adds tags, kept inside its builder, saturation and
the oracle.  A built system is a tree: `reach_stop` reads parent links.

This module imports only `values`, so a report that builds no tagged
system does not compile the knowledge layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .values import Record, parse_fraction, split_top_level

if TYPE_CHECKING:
    from .schema import TuplePattern

DELTA = "delta"


class DlttsError(ValueError):
    pass


class Label(Record):
    """What one branch teaches: free text, the matching line ids, the ground
    tuples added to the target's tag, and the probability provenance."""

    text: str = ""
    lines: frozenset[str] = frozenset()
    tuples: frozenset[TuplePattern] = frozenset()
    source: str = "db"

    def __str__(self) -> str:
        parts = [self.text] if self.text else []
        if self.lines:
            parts.append("{" + ",".join(sorted(self.lines)) + "}")
        return " ".join(parts)


class Branch(Record):
    """One outcome of a transition: target state, probability and label."""

    to: str
    prob: Fraction
    label: Label = Label()


class Transition(Record):
    """An action from a source state with its probability distribution over
    branches."""

    source: str
    action: str
    branches: tuple[Branch, ...]


class Dltts(Record):
    """A probabilistic transition system: the initial and Stop states,
    transitions, and per-state reachability probabilities (empty when left
    out)."""

    initial: str
    stop: str
    transitions: tuple[Transition, ...]
    state_probs: Mapping[str, Fraction] | None = None

    def _check(self) -> None:
        if self.state_probs is None:
            object.__setattr__(self, "state_probs", {})

    @cached_property
    def states(self) -> frozenset[str]:
        """The initial state, Stop and every transition endpoint."""
        states = {self.initial, self.stop}
        for t in self.transitions:
            states.add(t.source)
            states.update(b.to for b in t.branches)
        return frozenset(states)

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        index: dict[str, list[Transition]] = {}
        for t in self.transitions:
            index.setdefault(t.source, []).append(t)
        return {source: tuple(ts) for source, ts in index.items()}

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        return self._outgoing.get(state, ())


def natural_key(name: str) -> list:
    """Sort key that orders embedded numbers by value: s2 before s10."""
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


class Run(Record):
    """One run into Stop: its states, actions and exact probability."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    probability: Fraction


def reach_stop(dltts: Dltts) -> tuple[bool, tuple[Run, ...]]:
    """All runs from the initial state that end in Stop, each with the exact
    product of its branch probabilities, most probable first.  In a tree,
    as the builder makes, each branch into Stop ends at most one run, read
    by walking parent links up to the initial state in time linear in its
    length.  A state entered twice raises DlttsError naming it, so a graph
    that is not a tree never gets a wrong answer."""
    initial, stop = dltts.initial, dltts.stop
    if initial == stop:
        return (True, (Run((stop,), (), Fraction(1)),))
    parent: dict[str, tuple[Transition, Branch]] = {}
    into_stop: list[tuple[Transition, Branch]] = []
    for t in dltts.transitions:
        for b in t.branches:
            if b.to == stop:
                into_stop.append((t, b))
            elif b.to in parent or b.to == initial:
                raise DlttsError(f"state {b.to!r} is entered twice: not a tree")
            else:
                parent[b.to] = (t, b)
    runs: list[Run] = []
    for edge in into_stop:
        states, actions, prob = [stop], [], Fraction(1)
        # a chain longer than the states that have parents is a loop
        while edge is not None and len(states) <= len(parent) + 1:
            t, b = edge
            states.append(t.source)
            actions.append(t.action)
            prob *= b.prob
            edge = parent.get(t.source)
        if edge is None and states[-1] == initial:
            runs.append(Run(tuple(reversed(states)), tuple(reversed(actions)), prob))
    runs.sort(key=lambda r: (-r.probability, r.states))
    return (bool(runs), tuple(runs))


def validate(dltts: Dltts) -> list[str]:
    """Invariant check; empty list iff the system is well-formed."""
    problems: list[str] = []
    seen_distr: set[tuple] = set()
    for t in dltts.transitions:
        if t.source == dltts.stop:
            problems.append("Stop has an outgoing transition")
        if not t.branches:
            problems.append(f"transition from {t.source!r} has no branches")
            continue
        total = Fraction(0)
        for b in t.branches:
            if b.prob <= 0:
                problems.append(
                    f"branch {t.source}->{b.to} has non-positive probability"
                )
            total += b.prob
        if total != 1:
            problems.append(
                f"probabilities from {t.source!r} under {t.action!r} sum to {total}"
            )
        if len({b.to for b in t.branches}) != len(t.branches):
            problems.append(f"duplicate branch target from {t.source!r}")
        key = (t.source, frozenset((b.to, b.prob) for b in t.branches))
        if key in seen_distr:
            problems.append(
                f"two transitions from {t.source!r} share one distribution"
            )
        seen_distr.add(key)
        if t.action == DELTA:
            if len(t.branches) != 1 or t.branches[0].to != dltts.stop:
                problems.append(f"delta from {t.source!r} must go to Stop alone")
            elif t.branches[0].prob != 1:
                problems.append(f"delta from {t.source!r} must have probability 1")
    return problems


_PROVENANCE_RE = re.compile(r"^P_(\w+)\s+")


def _parse_label(text: str) -> Label:
    text = text.strip()
    source = "db"
    m = _PROVENANCE_RE.match(text)
    if m:
        source = "db" if m.group(1).lower() == "db" else m.group(1)
        text = text[m.end() :].strip()
    lines: frozenset[str] = frozenset()
    lm = re.search(r"\{([^{}]*)\}", text)
    if lm:
        lines = frozenset(
            part.strip() for part in lm.group(1).split(",") if part.strip()
        )
        text = (text[: lm.start()] + text[lm.end() :]).strip()
    return Label(text=text, lines=lines, source=source)


def _parse_transition(line: str) -> Transition:
    """One transition line: its branch list and optional action."""
    source, rest = (part.strip() for part in line.split("->", 1))
    if not rest.startswith("["):
        raise ValueError("expected a branch list")
    depth = 0
    end = None
    for i, ch in enumerate(rest):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                end = i
                break
    if end is None:
        raise ValueError("unterminated branch list")
    action = rest[end + 1 :].strip() or "query"
    branches = []
    for chunk in split_top_level(rest[1:end]):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad branch {chunk!r}")
        parts = split_top_level(chunk[1:-1])
        if len(parts) < 2:
            raise ValueError("branch needs target and prob")
        to = parts[0].strip()
        try:
            prob = parse_fraction(parts[1].strip())
        except ValueError as exc:
            raise ValueError(f"bad probability: {exc}") from exc
        label = _parse_label(",".join(parts[2:])) if len(parts) > 2 else Label()
        branches.append(Branch(to, prob, label))
    if not branches:
        raise ValueError("empty branch list")
    return Transition(source, action, tuple(branches))


def parse_dltts(text: str, name: str = "dltts") -> Dltts:
    """Parse the explicit transcript format::

        initial: s0
        stop: STOP
        s0 -> [(s1, 3/4, P_db age=[30-40] {l1,l2,l3}), (s2, 1/4, ...)] query:Age

    Transition lines list branches as (target, probability, label); the
    label may start with a provenance marker (P_db, P_N, P_b, ...) and may
    embed a {line,ids} set.  The action after the bracket list is optional.
    A malformed line raises DlttsError naming `name` and its line number.
    """
    initial = "s0"
    stop = "STOP"
    transitions: list[Transition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("initial:"):
            initial = line.split(":", 1)[1].strip()
            continue
        if line.lower().startswith("stop:"):
            stop = line.split(":", 1)[1].strip()
            continue
        if "->" not in line:
            raise DlttsError(f"{name}:{lineno}: cannot parse {raw!r}")
        try:
            transitions.append(_parse_transition(line))
        except ValueError as exc:
            raise DlttsError(f"{name}:{lineno}: {exc}") from exc
    return Dltts(initial=initial, stop=stop, transitions=tuple(transitions))
