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
# A branch (target, probability[, label]): the target is not blank, neither
# it nor the probability holds a bracket or a comma, and the label's
# brackets are unnested [lo-hi], {…} and (…) groups.  A line of such
# branches has a source without ">", so its "->" is the line's first, and
# an action without square brackets.  Each quantifier is greedy and ends at
# one place a char class forces, so a match or a miss takes linear time.
_BRANCH = (r"\(\s*([^][(){},\s][^][(){},]*),([^][(){},]*)(?:,([^][(){}]*(?:(?:\[[^][(){}]*\]"
           r"|\{[^][(){}]*\}|\([^][(){}]*\))[^][(){}]*)*))?\)")
_BRANCH_RE = re.compile(_BRANCH)
_LINE_RE = re.compile(rf"(?P<source>[^>\s][^>]*)->\s*\[\s*(?P<branches>(?:{_BRANCH}\s*"
                      rf"(?:,\s*(?=\()|(?=\])))+)\]\s*(?P<action>[^][]*)")


def _label(text: str, labels: dict[str, Label]) -> Label:
    """The label `text` reads as; `labels` caches the labels read so far."""
    if text not in labels:
        marker, before, lines, after = _LABEL_RE.fullmatch(text.strip()).groups()
        labels[text] = Label((before + (after or "")).strip(),
                             frozenset(filter(None, map(str.strip, (lines or "").split(",")))),
                             frozenset(), marker if marker and marker.lower() != "db" else "db")
    return labels[text]


def _prob(text: str, probs: dict[str, Fraction]) -> Fraction:
    """The probability `text` reads as; `probs` caches those read so far."""
    if text not in probs:
        try:
            probs[text] = parse_fraction(text)
        except InputError as exc:
            raise InputError(f"bad probability: {exc}") from None
    return probs[text]


def _parse_transition(line: str, probs: dict[str, Fraction],
                      labels: dict[str, Label]) -> Transition:
    """One transition line, read from one `_LINE_RE` match and its
    branches; a line that does not match, or whose probabilities do not
    all read, goes to the scanner, which makes every refusal."""
    m = _LINE_RE.fullmatch(line)
    if m is not None:
        try:
            return Transition(m["source"].strip(), m["action"] or "query", tuple(
                Branch(to.strip(), _prob(prob.strip(), probs), _label(text, labels))
                for to, prob, text in _BRANCH_RE.findall(m["branches"])))
        except InputError:
            pass
    return _scan_transition(line, probs, labels)


def _scan_transition(line: str, probs: dict[str, Fraction],
                     labels: dict[str, Label]) -> Transition:
    """One transition line, split through `values.split_top_level`."""
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
        branches.append(Branch(parts[0].strip(), _prob(parts[1].strip(), probs),
                               _label(",".join(parts[2:]), labels)))
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
    labels: dict[str, Label] = {}
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
                transitions.append(_parse_transition(line, probs, labels))
                where = where or lineno
            elif line:
                raise InputError(f"cannot parse {raw!r}")
        except InputError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from None
    if transitions and all(t.source != initial for t in transitions):
        raise InputError(f"{name}:{where}: no transition leaves the initial "
                         f"state {initial!r}")
    return Dltts(initial, stop, tuple(transitions))
