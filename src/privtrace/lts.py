"""Probabilistic labelled transition systems: the core under the tags, and
the reader of the explicit transcript format.

A system has a distinguished initial state, probabilistic transitions whose
branches carry labels (what each possible answer teaches), and a Stop state
reached only through the violation action `delta`.  The attack trees use
this core alone; `dltts` adds tags, kept inside its builder, saturation,
the oracle and the runs to Stop.

This module imports only `records` and `values`, so a report that builds
no tagged system does not compile the knowledge layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .records import InputError, Record, parse_fraction
from .values import split_top_level

if TYPE_CHECKING:
    from .schema import TuplePattern

DELTA = "delta"


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


def transition_problems(t: Transition, stop: str) -> Iterator[str]:
    """The rules one transition breaks, in order, each naming its source: it
    leaves no Stop, has a branch, positive probabilities summing to exactly
    1 and distinct targets, and `delta` goes to Stop alone.  Lazy."""
    if t.source == stop:
        yield "Stop has an outgoing transition"
    if not t.branches:
        yield f"transition from {t.source!r} has no branches"
        return
    for b in t.branches:
        if b.prob <= 0:
            yield f"branch {t.source}->{b.to} has non-positive probability"
    if (total := sum(b.prob for b in t.branches)) != 1:
        try:
            total = str(total)
        except ValueError:  # past the interpreter's limit on the digits it prints
            total = "a number too long to print"
        yield f"branch probabilities from {t.source!r} sum to {total}, not 1"
    if len({b.to for b in t.branches}) != len(t.branches):
        yield f"duplicate branch target from {t.source!r}"
    if t.action == DELTA and (len(t.branches) != 1 or t.branches[0].to != stop):
        yield f"delta from {t.source!r} must go to Stop alone"


class Dltts(Record):
    """A probabilistic transition system: initial and Stop states, transitions."""

    initial: str
    stop: str
    transitions: tuple[Transition, ...]

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
    """Sort key that orders embedded numbers by value: s2 before s10.  Each
    run of decimal digits is at an odd index of the split; `str.isdigit`
    would also pass a name like "²", which `int` cannot read."""
    return [int(p) if i % 2 else p for i, p in enumerate(re.split(r"(\d+)", name))]


_SQUARE_RE = re.compile(r"[][]")
# A label: a provenance marker, then text around its first {line,ids} set.
_LABEL_RE = re.compile(r"(?:P_(\w+)\s+)?(.*?)(?:\{([^{}]*)\}(.*))?")


def _parse_label(text: str) -> Label:
    m = _LABEL_RE.fullmatch(text.strip())
    source = m.group(1) or "db"
    return Label((m.group(2) + (m.group(4) or "")).strip(),
                 frozenset(filter(None, map(str.strip, (m.group(3) or "").split(",")))),
                 frozenset(), "db" if source.lower() == "db" else source)


def _parse_transition(line: str, probs: dict[str, Fraction]) -> Transition:
    """One transition line; `probs` caches the probabilities read so far."""
    source, _, rest = map(str.strip, line.partition("->"))
    if not rest.startswith("["):
        raise InputError("expected a branch list")
    depth = 0  # the list ends where its square brackets balance
    for m in _SQUARE_RE.finditer(rest):
        depth += 1 if m.group() == "[" else -1
        if not depth:
            break
    else:
        raise InputError("unterminated branch list")
    branches = []
    for chunk in split_top_level(rest[1 : m.start()]):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk[0] != "(" or chunk[-1] != ")":
            raise InputError(f"bad branch {chunk!r}")
        parts = split_top_level(chunk[1:-1])
        if len(parts) < 2:
            raise InputError("branch needs target and prob")
        text = parts[1].strip()
        if text not in probs:
            try:
                probs[text] = parse_fraction(text)
            except InputError as exc:
                raise InputError(f"bad probability: {exc}") from None
        branches.append(Branch(parts[0].strip(), probs[text],
                               _parse_label(",".join(parts[2:]))))
    action = rest[m.end() :].strip() or "query"
    if not branches:
        raise InputError("empty branch list")
    if "[" in action or "]" in action:
        raise InputError(f"action {action!r} holds a square bracket")
    if not source or not all(b.to for b in branches):
        raise InputError(f"empty {'target' if source else 'source'} state")
    return Transition(source, action, tuple(branches))


def parse_dltts(text: str, name: str = "dltts") -> Dltts:
    """Parse the explicit transcript format::

        initial: s0
        stop: STOP
        s0 -> [(s1, 3/4, P_db age=[30-40] {l1,l2,l3}), (s2, 1/4, ...)] query:Age

    A branch is (target, probability, label); a label may start with a
    provenance marker (P_db, P_N, P_b, ...) and may embed a {line,ids} set.
    The action is optional and holds no square bracket.  No state name is
    empty, and some transition, if any, leaves the initial state: else
    InputError names `name` and the line."""
    initial, stop, where = "s0", "STOP", 0
    transitions: list[Transition] = []
    probs: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        key = line.lower()
        try:
            if key.startswith(("initial:", "stop:")):
                state = line.partition(":")[2].strip()
                if not state:
                    raise InputError(f"empty {key[:-1]} state")
                if key[0] == "i":
                    initial, where = state, lineno
                else:
                    stop = state
            elif "->" in line:
                transitions.append(_parse_transition(line, probs))
                where = where or lineno
            elif line:
                raise InputError(f"cannot parse {raw!r}")
        except InputError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from None
    if transitions and all(t.source != initial for t in transitions):
        raise InputError(f"{name}:{where}: no transition leaves the initial "
                         f"state {initial!r}")
    return Dltts(initial, stop, tuple(transitions))
