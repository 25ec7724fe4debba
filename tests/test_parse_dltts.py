"""The transcript parser, which splits through the one bracket scanner
`values.split_top_level`, against the reference parser, which splits by a
walk over the characters (`tests/reference.py`): seeded well-formed and
mutated transcripts give an equal `Dltts` or an equal error.  The
exceptions are the refusals the reference lacks, each asserted by name: an
empty state name, an action holding a square bracket, and transitions none
of which leaves the initial state."""

from __future__ import annotations

import random
import re

import pytest
import reference

from privtrace.lts import Dltts, natural_key
from privtrace.records import InputError
from privtrace.transcript import parse_dltts

PROBS = ["1", "1/2", " 3/4 ", "0.25", "2/8", "1e-1", "-1/3", "0", "x", "1/0", "",
         "1e99999", "9" * 5000, "1_000/2_000", "(1)", "[1]"]
LABELS = ["", "P_db age=[30-40] {l1,l2,l3}", "P_b response(l4)=7", "P_a sex=F {l1}",
          "x, y", "{l1, ,l2}", "P_Db  text {a}", "P_x", "q {a{b}} c", "P_N {l-1} tail",
          "response(l-1)=v", "a=[1-2] b=[3-4]", "{}", "P_db  ", "t {x} u {y}"]
ACTIONS = ["", "query:Age", "response(l1)", "pick", "delta", "q r", "q[1]"]
MUTATIONS = "[](){},"


def _state(rng: random.Random, names: int) -> str:
    return "" if rng.random() < 0.02 else f"s{rng.randrange(names)}"


def _transcript(rng: random.Random) -> list[str]:
    lines = []
    initial = "s0"
    if rng.random() < 0.8:
        initial = rng.choice(["s0", "s0", "s1", _state(rng, 3)])
        lines.append(f"initial: {initial}")
    if rng.random() < 0.3:
        lines.append(rng.choice(["stop: STOP", "STOP: END", "stop: "]))
    for k in range(rng.randint(0, 4)):
        branches = []
        for _ in range(rng.randint(1, 3)):
            parts = [_state(rng, 10), rng.choice(PROBS)]
            if rng.random() < 0.7:
                parts.append(rng.choice(LABELS))
            branches.append("(" + ", ".join(parts) + ")")
        source = initial if k == 0 and rng.random() < 0.8 else _state(rng, 4)
        comment = " # note" if rng.random() < 0.2 else ""
        lines.append(f"{source} -> [{', '.join(branches)}] "
                     f"{rng.choice(ACTIONS)}{comment}")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), "# a comment")
    return lines


def _mutate(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(line))
        kind = rng.random()
        if kind < 0.35 and line:
            hits = [k for k, ch in enumerate(line) if ch in MUTATIONS]
            if hits:
                k = rng.choice(hits)
                line = line[:k] + line[k + 1:]
        elif kind < 0.7:
            line = line[:i] + rng.choice(MUTATIONS) + line[i:]
        elif kind < 0.8:
            line = line[:i] + rng.choice(["{l1,l2}", " ", "#", "->", "(,)", "[]"]) + line[i:]
        else:
            line = line.replace("->", rng.choice(["-", "=>", "->->"]), 1)
    return line


def _outcome(parse, text: str) -> Dltts | str:
    try:
        return parse(text, "t")
    except InputError as exc:
        return str(exc)


REFUSAL = re.compile(r"t:(\d+): (empty (initial|stop|source|target) state"
                     r"|action .* holds a square bracket"
                     r"|no transition leaves the initial state .*)")


def _refused(text: str, lineno: int, rule: str, kind: str | None) -> bool:
    """Does the reference parser accept the lines up to `lineno`, and does
    the last of them break `rule`?"""
    lines = text.splitlines()
    old = _outcome(reference.parse_dltts, "\n".join(lines[:lineno]))
    assert isinstance(old, Dltts), (text, old)
    if rule.startswith("no transition"):
        whole = _outcome(reference.parse_dltts, text)
        return (isinstance(whole, Dltts) and bool(whole.transitions)
                and all(t.source != whole.initial for t in whole.transitions))
    if kind in ("initial", "stop"):
        return getattr(old, kind) == ""
    last = old.transitions[-1]
    if kind == "source":
        return last.source == ""
    if kind == "target":
        return any(b.to == "" for b in last.branches)
    return "[" in last.action or "]" in last.action


def test_tokenizer_matches_the_reference_parser():
    rng = random.Random(20261019)
    counts = {"equal": 0, "error": 0}
    refusals: dict[str, int] = {}
    for case in range(3000):
        lines = _transcript(rng)
        if case % 2:
            lines = [_mutate(rng, line) if rng.random() < 0.5 else line
                     for line in lines]
        text = "\n".join(lines) + "\n"
        new = _outcome(parse_dltts, text)
        m = REFUSAL.fullmatch(new) if isinstance(new, str) else None
        if m:
            rule = m.group(2).split()[0] if m.group(3) is None else m.group(3)
            assert _refused(text, int(m.group(1)), m.group(2), m.group(3)), (text, new)
            refusals[rule] = refusals.get(rule, 0) + 1
            continue
        assert new == _outcome(reference.parse_dltts, text), text
        counts["equal" if isinstance(new, Dltts) else "error"] += 1
    # both outcomes, and every refusal, are well exercised
    assert min(counts.values()) > 300, counts
    assert set(refusals) == {"initial", "stop", "source", "target", "action", "no"}, refusals


@pytest.mark.parametrize("text, error", [
    ("initial:\ns0 -> [(s1, 1)]\n", "t:1: empty initial state"),
    ("stop:   # none\n", "t:1: empty stop state"),
    ("  -> [(s1, 1)]\n", "t:1: empty source state"),
    ("s0->[(,1)]\n", "t:1: empty target state"),
    ("s0 -> [(s1, 1)] ] x\n", "t:1: action '] x' holds a square bracket"),
    ("s0 -> [(s1, 1)] query[1]\n", "t:1: action 'query[1]' holds a square bracket"),
    ("initial: s00\ns0 -> [(s1, 1)]\n",
     "t:1: no transition leaves the initial state 's00'"),
    ("# drawn\ns1 -> [(s2, 1)]\ns0 -> [(s1, 1)]\ninitial: s9\n",
     "t:4: no transition leaves the initial state 's9'"),
    ("\ns1 -> [(s2, 1)]\n", "t:2: no transition leaves the initial state 's0'"),
])
def test_refusals_name_their_line(text, error):
    with pytest.raises(InputError) as exc:
        parse_dltts(text, "t")
    assert str(exc.value) == error
    assert isinstance(_outcome(reference.parse_dltts, text), Dltts)


def test_a_transcript_without_transitions_and_round_brackets_in_actions_load():
    assert parse_dltts("initial: s7\n# nothing drawn yet\n").transitions == ()
    dltts = parse_dltts("s0 -> [(s1, 1, P_db response(l-1)=3)] response(l-1)\n")
    assert dltts.transitions[0].action == "response(l-1)"
    assert dltts == reference.parse_dltts(
        "s0 -> [(s1, 1, P_db response(l-1)=3)] response(l-1)\n")


def test_natural_key_orders_digit_runs_by_value_and_keys_any_name():
    """A state name or line id is free text: "²" passes `str.isdigit` but
    is no decimal digit, and is ordered as text."""
    names = ["s10", "²", "s2", "s1x", "s²", "l٣"]
    assert sorted(names, key=natural_key) == ["l٣", "s1x", "s2", "s10", "s²", "²"]


def _seeded_name(rng: random.Random) -> str:
    """Text and digit runs: ASCII, Arabic-Indic, Devanagari and fullwidth
    digits, leading zeros, runs up to 60 digits long, and "²"."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            parts.append(rng.choice(["s", "l", "-", "x", "²", "", "S"]))
        else:
            run = "0" * rng.choice([0, 0, 1, 3]) + str(rng.randrange(10 ** rng.randint(1, 60)))
            parts.append("".join(rng.choice([d, d, d, chr(0x660 + int(d)), chr(0x966 + int(d)),
                                             chr(0xFF10 + int(d))]) for d in run))
    return "".join(parts)


def test_natural_key_orders_every_pair_as_the_int_key_did():
    """`natural_key` keys a digit run by its significant digits, not by
    `int`; on seeded names within the interpreter's digit limit it orders
    and ties every pair as the `int` key does, so sorting gives the same
    list."""
    rng = random.Random(30)
    names = [_seeded_name(rng) for _ in range(300)]
    new = [natural_key(n) for n in names]
    old = [reference.natural_key(n) for n in names]
    for i in range(len(names)):
        for j in range(len(names)):
            assert (new[i] < new[j], new[i] == new[j]) == (old[i] < old[j], old[i] == old[j]), \
                (names[i], names[j])
    assert sorted(names, key=natural_key) == sorted(names, key=reference.natural_key)


def test_natural_key_keys_a_digit_run_past_the_int_limit():
    """A name is no number: its digit run may be longer than `int` reads,
    and still sorts by value after every shorter run."""
    long = "1" * 5000
    with pytest.raises(ValueError):
        reference.natural_key("s" + long)
    names = ["s" + long[:-1] + "2", "s" + long, "s2", "s0" + long]
    assert sorted(names, key=natural_key) == ["s2", "s" + long, "s0" + long,
                                              "s" + long[:-1] + "2"]
