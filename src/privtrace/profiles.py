"""Attacker profiles, the attack trees built from them, and the consistency
check of any attack tree.  A built tree queries one quasi-identifier per
level; branch probabilities come from the profile's priors restricted to
the values actually present (renormalized) and fall back to the database's
conditional frequencies.  Only profiles, `attack --built` and `validate`
load this module, so a report on published transcripts does not compile it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import count
from typing import Mapping

from .attack import AttackDltts, _switched
from .lts import Branch, Dltts, Label, Transition
from .records import InputError, Names, Record, located, parse_fraction, shaped
from .schema import DataTable, Row, SchemaBundle
from .values import Value, parse_cell, render_cell

# The shape `records.shaped` checks a profile against, in the scenario
# document or in a file it names; a prior is an exact number that
# `parse_fraction` reads.
PROFILE = {"attribute_order": [str], "priors": Names(Names(object)),
           "objective": str, "empirical": bool}


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
            for value, prior in table.items():
                if prior < 0:
                    raise InputError(f"profile {self.name}: prior for {col} value "
                                     f"{render_cell(value)} is {prior}, negative")
            total = sum(table.values(), Fraction(0))
            if total != 1:
                raise InputError(f"profile {self.name}: priors for {col} sum to "
                                 f"{total}, not 1")


def parse_profile(name: str, doc, schema: SchemaBundle) -> AttackerProfile:
    """The profile `name` that the document `doc` of shape PROFILE holds."""
    shaped(doc, PROFILE, f"profile {name!r}")
    columns = {c.name: c for c in schema.columns}
    priors = {}
    for col_name, table in doc.get("priors", {}).items():
        if col_name not in columns:
            raise InputError(f"profile {name}: unknown column {col_name!r}")
        col = columns[col_name]
        where = f"profile {name!r} priors.{col_name}"
        priors[col_name] = {
            located(where, parse_cell, k, col.cls, col.taxonomy, col.normalizer):
                located(f"{where}.{k}", parse_fraction, v)
            for k, v in table.items()
        }
    return AttackerProfile(name, tuple(doc.get("attribute_order", ())), priors,
                           doc.get("objective", ""), doc.get("empirical", False))


def _sensitive_value(db: DataTable, line_id: str) -> str:
    for i, col in enumerate(db.columns):
        if col.group == "sensitive":
            return render_cell(db.row(line_id).cells[i])
    raise InputError(f"table {db.name} has no sensitive column")


def build_attack_dltts(db: DataTable, profile: AttackerProfile) -> AttackDltts:
    """One query level per profile attribute, then a uniform split to
    singleton leaves, then a response(l) transition at every
    singleton-labeled node.  A zero prior where a level splits is refused."""
    qid_names = {c.name for c in db.columns if c.group == "quasi-identifier"}
    for col in profile.attribute_order:
        if col not in qid_names:
            raise InputError(f"profile {profile.name}: {col!r} is not a qid column")
    for col, table in profile.priors.items():
        idx = db.column_index(col)
        present = {row.cells[idx] for row in db.rows}
        missing = present - set(table)
        if missing:
            raise InputError(f"profile {profile.name}: no prior for {col} value(s) "
                             f"{sorted(map(str, missing))}")

    # Children are pushed in reverse, so each subtree is built, and its
    # states named, before its next sibling's: depth-first, as s1, s2, ...
    transitions: list[Transition] = []
    serial = count(1)
    stack = [("s0", db.rows, 0)]
    while stack:
        state, rows, depth = stack.pop()
        if depth == len(profile.attribute_order) or not rows:
            if len(rows) > 1:
                prob = Fraction(1, len(rows))
                transitions.append(Transition(state, "pick", tuple(
                    Branch(f"s{next(serial)}", prob, Label(lines=frozenset({r.line_id})))
                    for r in rows
                )))
            continue
        col = profile.attribute_order[depth]
        idx = db.column_index(col)
        groups: dict[Value, list[Row]] = {}
        for row in rows:
            groups.setdefault(row.cells[idx], []).append(row)
        # One present value, or no priors for the column: the rows' counts.
        priors = profile.priors.get(col) if len(groups) > 1 else None
        weights = {v: len(g) if priors is None else priors[v] for v, g in groups.items()}
        # a branch of probability 0 is no branch: the level cannot split there
        if zero := sorted(str(v) for v, w in weights.items() if w == 0):
            every = " all" if len(zero) == len(groups) else ""
            raise InputError(f"profile {profile.name}: {col} values {zero} at one "
                             f"query level{every} have prior 0")
        total = sum(weights.values(), Fraction(0))
        source = "db" if priors is None or profile.empirical else profile.name
        branches, children = [], []
        for v, group in groups.items():
            child = f"s{next(serial)}"
            label = Label(text=f"{col}={render_cell(v)}",
                          lines=frozenset(r.line_id for r in group), source=source)
            branches.append(Branch(child, weights[v] / total, label))
            children.append((child, group, depth + 1))
        transitions.append(Transition(state, f"query:{col}", tuple(branches)))
        stack.extend(reversed(children))

    dltts = Dltts(initial="s0", stop="STOP", transitions=tuple(transitions))
    return _switched(AttackDltts(profile.name, dltts, ()), (),
                     partial(_sensitive_value, db), assumed=False)


def attack_problems(attack: AttackDltts, db: DataTable | None = None) -> list[str]:
    """Consistency of an attack tree beyond `dltts.validate`'s distribution
    rules: sibling label sets partition the parent's label set (root: the
    table's lines when a table is given), and responses are drawn only at
    singleton nodes, each misplaced one named once, in response order."""
    problems = []
    dltts, switches = attack.dltts, attack._switch_lines
    incoming_lines: dict[str, frozenset[str]] = {}
    if db is not None:
        incoming_lines[dltts.initial] = frozenset(db.line_ids())
    for t in dltts.transitions:
        if t.action in switches:
            continue
        for b in t.branches:
            incoming_lines[b.to] = b.label.lines
    for t in dltts.transitions:
        if t.action in switches:
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
            problems.append(f"{t.source}: children {sorted(union)} do not partition "
                            f"{sorted(parent)}")
    singletons = set(attack.singleton_nodes())
    for node, line in dict.fromkeys((e.node, e.line) for e in attack.responses):
        if (node, line) not in singletons:
            problems.append(f"{node}: response({line}) at a non-singleton node")
    return problems
