"""Probabilistic labelled transition systems: the core under the tags.

A system has a distinguished initial state, probabilistic transitions whose
branches carry labels (what each possible answer teaches), and a Stop state
reached only through the violation action `delta`.  A system may carry
per-state tags, but nothing here computes them: the attack trees use this
core alone, and `dltts` adds the builder, saturation and the oracle.

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

Tag = frozenset


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
    """A tagged probabilistic transition system: the initial and Stop
    states, transitions, and per-state tags, saturated tags and
    reachability probabilities.  Each mapping left out starts empty."""

    initial: str
    stop: str
    transitions: tuple[Transition, ...]
    tags: Mapping[str, Tag] | None = None
    saturated: Mapping[str, Tag] | None = None
    state_probs: Mapping[str, Fraction] | None = None

    def _check(self) -> None:
        for name in ("tags", "saturated", "state_probs"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, {})

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
    """All simple runs from the initial state that end in Stop, each with the
    exact product of its branch probabilities.  Depth-first with an explicit
    stack, so transcript depth is not bounded by the interpreter's
    recursion limit."""
    runs: list[Run] = []
    todo = [((dltts.initial,), (), Fraction(1))]
    while todo:
        path, actions, prob = todo.pop()
        if path[-1] == dltts.stop:
            runs.append(Run(path, actions, prob))
            continue
        todo.extend(reversed([
            (path + (b.to,), actions + (t.action,), prob * b.prob)
            for t in dltts.outgoing(path[-1])
            for b in t.branches
            if b.to not in path
        ]))
    runs.sort(key=lambda r: (-r.probability, r.states))
    return (bool(runs), tuple(runs))


def validate(dltts: Dltts) -> list[str]:
    """Invariant check; empty list iff the system is well-formed."""
    problems: list[str] = []
    if dltts.tags.get(dltts.stop):
        problems.append("Stop carries a tag")
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
    if dltts.tags:
        for t in dltts.transitions:
            src_sat = dltts.saturated.get(t.source)
            if src_sat is None:
                continue
            for b in t.branches:
                if b.to == dltts.stop:
                    continue
                tag = dltts.tags.get(b.to)
                if tag is None:
                    problems.append(f"state {b.to!r} has no tag")
                elif tag != src_sat | b.label.tuples:
                    problems.append(
                        f"tag at {b.to!r} is not tight wrt {t.source!r}"
                    )
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


def parse_dltts(text: str, name: str = "dltts") -> Dltts:
    """Parse the explicit transcript format::

        initial: s0
        stop: STOP
        s0 -> [(s1, 3/4, P_db age=[30-40] {l1,l2,l3}), (s2, 1/4, ...)] query:Age

    Transition lines list branches as (target, probability, label); the
    label may start with a provenance marker (P_db, P_N, P_b, ...) and may
    embed a {line,ids} set.  The action after the bracket list is optional.
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
        source, rest = (part.strip() for part in line.split("->", 1))
        if not rest.startswith("["):
            raise DlttsError(f"{name}:{lineno}: expected a branch list")
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
            raise DlttsError(f"{name}:{lineno}: unterminated branch list")
        action = rest[end + 1 :].strip() or "query"
        branches = []
        for chunk in split_top_level(rest[1:end]):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise DlttsError(f"{name}:{lineno}: bad branch {chunk!r}")
            parts = split_top_level(chunk[1:-1])
            if len(parts) < 2:
                raise DlttsError(f"{name}:{lineno}: branch needs target and prob")
            to = parts[0].strip()
            try:
                prob = parse_fraction(parts[1].strip())
            except ValueError as exc:
                raise DlttsError(f"{name}:{lineno}: bad probability: {exc}") from exc
            label = _parse_label(",".join(parts[2:])) if len(parts) > 2 else Label()
            branches.append(Branch(to, prob, label))
        if not branches:
            raise DlttsError(f"{name}:{lineno}: empty branch list")
        transitions.append(Transition(source, action, tuple(branches)))
    return Dltts(initial=initial, stop=stop, transitions=tuple(transitions))

