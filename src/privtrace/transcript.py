"""The reader of the explicit transcript format: `parse_dltts` turns a
published transcript into an `lts.Dltts`.

Only a scenario that names transcripts loads this module: `attack` reads
attack transcripts with it, and `scenario` imports it when a scenario
names `dltts` transcripts, so a report on scripted runs alone does not
compile it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .lts import Branch, Dltts, Label, Transition
from .records import InputError, parse_fraction
from .values import split_top_level

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
