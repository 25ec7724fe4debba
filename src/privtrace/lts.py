"""Probabilistic labelled transition systems: the core under the tags.

A system has a distinguished initial state, probabilistic transitions whose
branches carry labels (what each possible answer teaches), and a Stop state
reached only through the violation action `delta`.  The attack trees use
this core alone; `dltts` adds tags, kept inside its builder, saturation,
the oracle and the runs to Stop.  `transcript` reads the explicit
transcript format into this core.

This module imports only `records`, so a report that builds
no tagged system does not compile the knowledge layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .records import Record

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
    run of decimal digits is at an odd index of the split and keys as its
    count of significant digits, then those digits in ASCII, which orders
    runs as their values without `int`: a run past the interpreter's limit
    on the digits it converts is a name, not a number too long.
    `str.isdigit` would also pass a name like "²", which is no decimal
    digit."""
    parts = re.split(r"(\d+)", name)
    for i in range(1, len(parts), 2):
        digits = parts[i] if parts[i].isascii() else "".join(str(int(d)) for d in parts[i])
        digits = digits.lstrip("0")
        parts[i] = (len(digits), digits)
    return parts
