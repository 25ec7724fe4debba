"""Probabilistic labelled transition systems: the core under the tags, and
the reader of the explicit transcript format.

A system has a distinguished initial state, probabilistic transitions whose
branches carry labels (what each possible answer teaches), and a Stop state
reached only through the violation action `delta`.  The attack trees use
this core alone; `dltts` adds tags, kept inside its builder, saturation,
the oracle and the runs to Stop.

This module imports only `values`, so a report that builds no tagged
system does not compile the knowledge layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .values import Record, parse_fraction

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


# A token is the run of other text before a whole branch "(target,
# probability[, label])", a bracket, a comma or the end, as in the `re`
# docs' tokenizer recipe.  A bracket pair holding no bracket is text, so a
# label's {line,ids}, [lo-hi] and response(l) cost no token.
_OTHER, _FLAT = r"[^][(){},]", r"\[[^][(){}]*\]|\{[^][(){}]*\}"
_TOKEN = re.compile(
    _OTHER + "*(?:(?:" + _FLAT + ")" + _OTHER + r"*)*(?:\((" + _OTHER + "*),("
    + _OTHER + r"*)(?:,((?:[^][(){}]|" + _FLAT + r"|\([^][(){}]*\))*))?\)|([][(){},]|\Z))")
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
        raise ValueError("expected a branch list")
    # `depth` counts the open brackets of every kind and `square` the square
    # ones, so the list ends where `square` would fall to 0.  A branch is
    # marked by its start, end, first return to depth 0 and depth-1 commas.
    depth, square, unbalanced, marks = 0, 1, False, [[1, -1, -1]]
    for m in _TOKEN.finditer(rest, 1):
        c, at, mark = m.group(4), m.end() - 1, marks[-1]
        if c is None:
            if depth == 0:  # a whole branch, balanced
                mark[2] = at if mark[2] < 0 else mark[2]
                mark += m.end(1), m.end(2)
        elif c == ",":
            if depth == 0:
                mark[1] = at
                marks.append([at + 1, -1, -1])
            elif depth == 1:
                mark.append(at)
        elif not c:
            raise ValueError("unterminated branch list")
        elif c == "]" and square == 1:
            break
        else:
            step = 1 if c in "([{" else -1
            depth, square = depth + step, square + step * (c in "[]")
            unbalanced |= depth < 0
            mark[2] = at if depth == 0 and mark[2] < 0 else mark[2]
    if unbalanced or depth:
        raise ValueError(f"unbalanced brackets in {rest[1:at]!r}")
    marks[-1][1] = at
    branches = []
    for start, end, close, *commas in marks:
        raw = rest[start:end]
        chunk = raw.strip()
        if not chunk:
            continue
        if chunk[0] != "(" or chunk[-1] != ")":
            raise ValueError(f"bad branch {chunk!r}")
        stop = start + len(raw.rstrip()) - 1
        if close != stop:
            raise ValueError(f"unbalanced brackets in {chunk[1:-1]!r}")
        if not commas:
            raise ValueError("branch needs target and prob")
        first, second = (commas + [stop])[:2]
        text = rest[first + 1 : second].strip()
        if text not in probs:
            try:
                probs[text] = parse_fraction(text)
            except ValueError as exc:
                raise ValueError(f"bad probability: {exc}") from None
        branches.append(Branch(rest[end - len(raw.lstrip()) + 1 : first].strip(),
                               probs[text], _parse_label(rest[second + 1 : stop])))
    action = rest[at + 1 :].strip() or "query"
    if not branches:
        raise ValueError("empty branch list")
    if "[" in action or "]" in action:
        raise ValueError(f"action {action!r} holds a square bracket")
    if not source or not all(b.to for b in branches):
        raise ValueError(f"empty {'target' if source else 'source'} state")
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
    DlttsError names `name` and the line."""
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
                    raise ValueError(f"empty {key[:-1]} state")
                if key[0] == "i":
                    initial, where = state, lineno
                else:
                    stop = state
            elif "->" in line:
                transitions.append(_parse_transition(line, probs))
                where = where or lineno
            elif line:
                raise ValueError(f"cannot parse {raw!r}")
        except ValueError as exc:
            raise DlttsError(f"{name}:{lineno}: {exc}") from None
    if transitions and all(t.source != initial for t in transitions):
        raise DlttsError(f"{name}:{where}: no transition leaves the initial "
                         f"state {initial!r}")
    return Dltts(initial, stop, tuple(transitions), {})
