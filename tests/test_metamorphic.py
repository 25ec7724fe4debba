"""Metamorphic relations of the attack report: seeded, generated attack
scenarios whose `analyze` body must not change when the transcripts are
rewritten in ways that mean the same system.

- Renaming states by a bijection.  The body names states only in its
  strategy lines, sorted by `natural_key`, so the renaming keeps that
  order, and the renamed body must be the original body with those names
  renamed.  Some cases rename a state to `<node>r` for a node whose
  response switch is synthesized, the name the switch would take.
- Permuting the lines of each transcript: the body must be the same
  bytes.

A relation that fails is a bug in the reader or the priority runs, or an
order the report depends on; differential tests, which compare new code
with old, cannot see a bug that both share.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction as F
from itertools import count

from privtrace.attack import load_attack_dltts
from privtrace.cli import cli_main
from privtrace.lts import natural_key

SYSTEMS = {"A": "a", "B": "b", "C": "db"}
COLUMNS = ("Sex", "Dept")
VALUES = {"Sex": ("F", "M"), "Dept": ("Ops", "Legal", "Sales")}


def _name(n) -> str:
    return "STOP" if n == "STOP" else f"s{n}"


def _rows(rng: random.Random) -> list[tuple[str, str, str, int]]:
    return [(f"l{i + 1}", rng.choice(VALUES["Sex"]), rng.choice(VALUES["Dept"]),
             rng.randint(1, 9)) for i in range(rng.randint(2, 9))]


def _tree(rng: random.Random, rows, marker: str) -> list[tuple[int, list, str]]:
    """An attack tree over `rows` as (source, branches, action), states by
    number: a query splits a node's rows by a column, a pick splits them
    into single rows, and a single row's node draws its response switch
    half the time.  Some nodes take a second pick, whose priority key may
    tie the first's, and some queries also branch into Stop."""
    serial = count(1)
    out = []

    def split(state, groups, action, labels, stop=False):
        weights = [rng.choice((1, 1, 2, 3)) for _ in range(len(groups) + stop)]
        total = sum(weights)
        branches = [(next(serial), F(w, total), label, group)
                    for w, label, group in zip(weights, labels, groups)]
        if stop:
            branches.append(("STOP", F(weights[-1], total), "P_db out", None))
        out.append((state, [b[:3] for b in branches], action))
        return [(to, group) for to, _, _, group in branches if group]

    todo = [(0, rows)]
    while todo:
        state, group = todo.pop()
        if len(group) == 1:
            (line, *_, value), = group
            if rng.random() < 0.5:
                out.append((state, [(next(serial), F(1), f"P_db response({line})={value}")],
                            f"response({line})"))
            continue
        column = rng.choice(COLUMNS)
        parts: dict[str, list] = {}
        for row in group:
            parts.setdefault(row[1 + COLUMNS.index(column)], []).append(row)
        if len(parts) > 1 and rng.random() < 0.7:
            labels = [f"P_{marker} {column.lower()}={v} {{{','.join(r[0] for r in rs)}}}"
                      for v, rs in parts.items()]
            todo += split(state, list(parts.values()), f"query:{column}", labels,
                          stop=rng.random() < 0.2)
            continue
        for _ in range(1 + (rng.random() < 0.3)):
            todo += split(state, [[row] for row in group], "pick",
                          [f"P_{marker} {{{row[0]}}}" for row in group])
    return out


def _text(tree, name, order=None, extra="") -> str:
    """The transcript of `tree`, its states named by `name`, its
    transitions in `order`, and `extra` header lines."""
    lines = [f"{name(source)} -> [" + ", ".join(
        f"({name(to)}, {prob}, {label})" for to, prob, label in branches) + f"] {action}"
        for source, branches, action in tree]
    lines = [lines[i] for i in order] if order else lines
    return extra + "\n".join(lines) + "\n"


def _write(directory, rows, texts: dict[str, str]) -> None:
    directory.mkdir(exist_ok=True)
    (directory / "schema.json").write_text(json.dumps({
        "columns": [{"name": c, "class": "nominal", "group": "quasi-identifier"}
                    for c in COLUMNS]
        + [{"name": "Response", "class": "numerical", "group": "sensitive"}],
        "taxonomies": {}, "policy": []}))
    (directory / "responses.csv").write_text(
        "Line,Sex,Dept,Response\n" + "".join(f"{l},{s},{d},{v}\n" for l, s, d, v in rows))
    for system, text in texts.items():
        (directory / f"{system}.dltts").write_text(text)
    (directory / "scenario.json").write_text(json.dumps({
        "name": "metamorphic", "schema": "schema.json",
        "tables": {"responses": {"file": "responses.csv"}},
        "attack_dltts": {s: f"{s}.dltts" for s in texts}, "baseline": "C",
        "analysis": {"attack": {"attackers": list(texts), "table": "responses"},
                     "strategy": [{"attacker": "A"}, {"attacker": "B"}]}}))


def _body(directory) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["analyze", "--scenario", str(directory / "scenario.json")]) == 0
    return out.getvalue()


def _renaming(rng: random.Random, states: list[str], collide: str | None) -> dict[str, str]:
    """A bijection from `states`, in `natural_key` order, onto fresh names
    in the same order; with `collide`, the state after it takes `collide`'s
    new name plus "r"."""
    fresh: set[str] = set()
    while len(fresh) < len(states):
        fresh.add(rng.choice(("s", "n", "q-", "Z")) + str(rng.randrange(1000)))
    new = sorted(fresh, key=natural_key)
    if collide is not None:
        k = states.index(collide)
        new[k + 1] = new[k] + "r"
    return dict(zip(states, new))


def test_attack_reports_commute_with_renaming_and_permuting(tmp_path):
    rng = random.Random(20261020)
    changed = collisions = 0
    for case in range(40):
        rows = _rows(rng)
        trees = {system: _tree(rng, rows, marker) for system, marker in SYSTEMS.items()}
        texts = {system: _text(tree, _name) for system, tree in trees.items()}
        directory = tmp_path / f"c{case}"
        _write(directory, rows, texts)
        body = _body(directory)

        for system, tree in trees.items():
            head = "initial: s0\n" if rng.random() < 0.5 else ""
            (directory / f"{system}.dltts").write_text(
                _text(tree, _name, rng.sample(range(len(tree)), len(tree)), head))
        assert _body(directory) == body, case

        states = sorted({_name(n) for tree in trees.values() for source, branches, _ in tree
                         for n in [source] + [to for to, _, _ in branches]} - {"STOP"},
                        key=natural_key)
        # In every fourth case, the state after a node whose switch A's
        # loader synthesizes takes the name that switch would go to.
        synthesized = [e.node for e in load_attack_dltts(texts["A"]).responses
                       if e.assumed and e.node != states[-1]]
        collide = synthesized[0] if case % 4 == 0 and synthesized else None
        collisions += collide is not None
        rename = _renaming(rng, states, collide)
        for system, tree in trees.items():
            (directory / f"{system}.dltts").write_text(_text(
                tree, lambda n: "END" if n == "STOP" else rename[_name(n)], None,
                f"initial: {rename['s0']}\nstop: END\n"))
        renamed = _body(directory)
        assert renamed == re.sub(r"\bs\d+\b", lambda m: rename[m[0]], body), case
        changed += renamed != body
    assert collisions >= 8 and changed >= 35, (collisions, changed)
