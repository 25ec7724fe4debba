"""Tagged probabilistic transition systems.

A system has states carrying *tags* (sets of signed ground tuples: what the
querying agent knows so far), probabilistic transitions whose branches carry
*labels* (what each possible answer teaches), a distinguished initial state,
and a Stop state reached only through the violation action `delta`.

Tags are kept *tight*: the tag of a branch target is the saturated tag of
the source plus the branch label's tuples.  Saturation closes a tag under
three deduction rules against the external bases:

  R1  identifier join: a pattern carrying an identifier value absorbs an
      external row with the same identifier (all shared concrete cells must
      agree), merging the two column sets.
  R2  taxonomy refinement: a tuple's taxonomy cell moves down to an external
      count row's strictly-deeper node when the count is exactly 1 and every
      shared join column agrees concretely.
  R3  identity linkage: a pattern's identifier cells propagate onto the
      unique external row matching all its concrete non-identifier cells.

External tables carrying a Count column are aggregates, not records: only
R2 reads them, and the record-linkage rules R1/R3 skip them.

All three fire on single tag premises (uniqueness in R3 is counted over the
fixed external base), so saturation is monotone and idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import privacy
from .metrics import IntervalMeasureMode, rho
from .schema import (
    ColumnSchema,
    DataTable,
    PrivacyPolicy,
    Row,
    TOP,
    TuplePattern,
)
from .values import (
    ColumnClass,
    Number,
    TaxonomyTree,
    Taxon,
    Wildcard,
    split_top_level,
)

DELTA = "delta"

Tag = frozenset


class DlttsError(ValueError):
    pass


@dataclass(frozen=True)
class Label:
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


@dataclass(frozen=True)
class Branch:
    """One outcome of a transition: target state, probability and label."""

    to: str
    prob: Fraction
    label: Label = Label()


@dataclass(frozen=True)
class Transition:
    """An action from a source state with its probability distribution over
    branches."""

    source: str
    action: str
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Dltts:
    """A tagged probabilistic transition system: states, transitions, the
    initial and Stop states, and per-state tags, saturated tags and
    reachability probabilities."""

    initial: str
    stop: str
    states: frozenset[str]
    transitions: tuple[Transition, ...]
    tags: Mapping[str, Tag] = field(default_factory=dict)
    saturated: Mapping[str, Tag] = field(default_factory=dict)
    state_probs: Mapping[str, Fraction] = field(default_factory=dict)

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        index: dict[str, list[Transition]] = {}
        for t in self.transitions:
            index.setdefault(t.source, []).append(t)
        return {source: tuple(ts) for source, ts in index.items()}

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        return self._outgoing.get(state, ())


def _merged_taxonomies(
    externals: Sequence[DataTable],
    taxonomies: Mapping[str, TaxonomyTree] | None,
) -> dict[str, TaxonomyTree]:
    merged = dict(taxonomies or {})
    for table in externals:
        for name, tree in table.taxonomies.items():
            merged.setdefault(name, tree)
    return merged


def _merge(p: TuplePattern, table: DataTable, row: Row) -> TuplePattern:
    """Union-of-columns merge: p's concrete cells win, the row fills p's
    wildcards on shared columns and contributes its remaining columns."""
    positions = table.column_positions
    columns = list(p.columns)
    cells = [
        row.cells[positions[c]] if isinstance(v, Wildcard) and c in positions else v
        for c, v in zip(p.columns, p.cells)
    ]
    for c, i in positions.items():
        if c not in p.columns:
            columns.append(c)
            cells.append(row.cells[i])
    return TuplePattern(tuple(columns), tuple(cells), False)


def _count_column(table: DataTable) -> str | None:
    for col in table.columns:
        if col.name.lower() == "count" and col.cls is ColumnClass.NUMERICAL:
            return col.name
    return None


def _derive(
    p: TuplePattern,
    table: DataTable,
    count_col: str | None,
    is_id: Mapping[str, bool],
    taxonomies: Mapping[str, TaxonomyTree],
) -> Iterable[TuplePattern]:
    """The tuples R1-R3 derive from the one premise p against one base,
    through the base's cached row groupings."""
    positions = table.column_positions
    shared = [(c, v) for c, v in p.concrete_items() if c in positions]
    if count_col is None:
        # R1: rows with p's identifier cell that agree on every shared cell.
        key = next(((c, v) for c, v in shared if is_id.get(c)), None)
        if key is not None:
            for row in table.rows_by((key[0],)).get((key[1],), ()):
                if all(row.cells[positions[c]] == v for c, v in shared):
                    yield _merge(p, table, row)
        # R3: the one row matching p's non-identifier cells, when p has an
        # identifier cell.
        join = [(c, v) for c, v in shared if not is_id.get(c)]
        if join and any(is_id.get(c) for c, _ in p.concrete_items()):
            cols, vals = zip(*join)
            matches = table.rows_by(cols).get(vals, ())
            if len(matches) == 1:
                yield _merge(p, table, matches[0])
        return
    # R2: count-1 rows agreeing on every other shared column move a taxon
    # cell down to their strictly deeper node.
    for c, x in shared:
        tree = taxonomies.get(x.tree) if isinstance(x, Taxon) else None
        if tree is None:
            continue
        join = [
            (jc, v) for jc, v in zip(p.columns, p.cells)
            if jc in positions and jc not in (c, count_col)
        ]
        if not join or any(isinstance(v, Wildcard) for _, v in join):
            continue
        cols, vals = zip(*join)
        for row in table.rows_by(cols + (count_col,)).get(vals + (Number(1),), ()):
            y = row.cells[positions[c]]
            if (
                isinstance(y, Taxon)
                and y.tree == x.tree
                and tree.is_strict_descendant(y.node, x.node)
            ):
                yield p.replace_cell(c, y)


def saturate(
    tag: Tag,
    externals: Sequence[DataTable] = (),
    *,
    columns: Iterable[ColumnSchema] | None = None,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    closed: Tag = frozenset(),
    memo: dict[TuplePattern, tuple[TuplePattern, ...]] | None = None,
    max_rounds: int = 1000,
) -> Tag:
    """Least fixpoint of R1-R3 over the tag against the external bases.

    Semi-naive: every rule has one premise, so each round applies the rules
    only to the tuples the round before added.  `closed` names a part of
    `tag` that is already closed under the rules (a parent state's
    saturated tag); it never enters the first round.  `memo` maps a premise
    to what R1-R3 derive from it; a caller may keep one across calls only
    while `externals`, `columns` and `taxonomies` stay the same.

    Raises DlttsError if the fixpoint is not reached within `max_rounds`
    (which would signal a rule bug: the closure is finite by construction).
    """
    is_id: dict[str, bool] = {}
    for col in [*(columns or ()), *(c for t in externals for c in t.columns)]:
        is_id.setdefault(col.name, col.group == "identifier")
    trees = _merged_taxonomies(externals, taxonomies)
    bases = [(table, _count_column(table)) for table in externals]
    memo = {} if memo is None else memo
    current = set(tag)
    frontier = current - closed
    for _ in range(max_rounds + 1):
        new: set[TuplePattern] = set()
        for p in frontier:
            if p.negative or not p.columns:
                continue
            derived = memo.get(p)
            if derived is None:
                derived = memo[p] = tuple(
                    q for table, count_col in bases
                    for q in _derive(p, table, count_col, is_id, trees)
                )
            new.update(derived)
        new -= current
        if not new:
            return frozenset(current)
        current |= new
        frontier = new
    raise DlttsError(f"saturation did not reach a fixpoint in {max_rounds} rounds")


def _matches_negative(p: TuplePattern, negative: TuplePattern) -> bool:
    """Does positive p confirm every concrete cell of the negative pattern?"""
    for c, v in negative.concrete_items():
        pc = p.cell(c)
        if pc is None or isinstance(pc, Wildcard) or pc != v:
            return False
    return True


def check_consistency(
    tag: Tag, policy: PrivacyPolicy, *, closed: Tag = frozenset()
) -> bool:
    """False iff some positive tag tuple matches a policy pattern at every
    non-wildcard position, or the tag holds a tuple and its own negation.

    `closed` names a part of `tag` that already passed this check (a parent
    state's saturated tag).  Only the tuples outside it are checked, but
    against the whole tag: a positive one against the policy and its own
    negation, a negative one against its affirmation.
    """
    for p in tag - closed if closed else tag:
        if not p.columns:
            continue
        if TuplePattern(p.columns, p.cells, not p.negative) in tag:
            return False
        if not p.negative and any(_matches_negative(p, n) for n in policy.patterns):
            return False
    return True


class OracleVerdict(Enum):
    CONTINUE = "continue"
    VIOLATION = "violation"
    EPSILON_VIOLATION = "epsilon-violation"


def _is_knowledge(p: TuplePattern) -> bool:
    """Does rho read p: a star-free positive tuple over some columns?"""
    return not p.negative and bool(p.columns) and p.is_ground()


def _tag_rho(tag: Iterable[TuplePattern], secrets, mode, taxonomies, normalizer):
    """rho between the knowledge tuples of the tag and the secrets."""
    knowledge = [p.cells for p in tag if _is_knowledge(p)]
    if not knowledge:
        return None
    return rho(knowledge, secrets, mode, taxonomies=taxonomies, normalizer=normalizer)


def _verdict(
    tag: Tag, policy: PrivacyPolicy, epsilon, distance, closed: Tag = frozenset()
) -> OracleVerdict:
    """The policy check first, then rho <= epsilon.  `distance()` gives rho;
    it is None when no secrets are given, and called only when needed.
    `closed` is a part of `tag` that already passed the policy check."""
    if not check_consistency(tag, policy, closed=closed):
        return OracleVerdict.VIOLATION
    if epsilon is not None and distance is not None:
        r = distance()
        if r is not None and r <= epsilon:
            return OracleVerdict.EPSILON_VIOLATION
    return OracleVerdict.CONTINUE


def oracle_verdict(
    saturated_tag: Tag,
    policy: PrivacyPolicy,
    secret_set: Iterable[Sequence] | None = None,
    epsilon: Fraction | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer=None,
) -> OracleVerdict:
    def distance() -> Fraction | None:
        return _tag_rho(saturated_tag, list(secret_set), mode, taxonomies, normalizer)

    return _verdict(
        saturated_tag, policy, epsilon, None if secret_set is None else distance
    )


class DlttsBuilder:
    """Single-owner construction of a tagged system.

    Tags are computed tightly from branch labels and saturated eagerly at
    state creation, each from its parent's saturated tag, and cached.
    `oracle_step` checks a state and, on a violation, installs the `delta`
    transition to Stop as its only outgoing transition.

    A new state pays only for what it adds to its parent's saturated tag,
    which it contains.  Saturation reads one memo of each premise's R1-R3
    results, valid because the externals, columns and taxonomies are fixed
    for the builder's life.  When the parent passed the policy check, only
    the added tuples are checked.  When the parent was examined against the
    same secrets, mode and normalizer, the state's rho is the minimum of the
    parent's and the distances of the ground tuples it added; those
    distances are memoized by the tuple's cells while that key stays the
    same.
    """

    def __init__(
        self,
        *,
        policy: PrivacyPolicy | None = None,
        externals: Sequence[DataTable] = (),
        columns: Iterable[ColumnSchema] | None = None,
        taxonomies: Mapping[str, TaxonomyTree] | None = None,
        initial: str = "s0",
        stop: str = "STOP",
    ) -> None:
        self.policy = policy or PrivacyPolicy(())
        self.externals = tuple(externals)
        self.columns = tuple(columns or ())
        self.taxonomies = _merged_taxonomies(self.externals, taxonomies)
        self.initial = initial
        self.stop = stop
        self.transitions: list[Transition] = []
        self._derivations: dict[TuplePattern, tuple[TuplePattern, ...]] = {}
        self.tags: dict[str, Tag] = {initial: frozenset({TOP})}
        self.saturated: dict[str, Tag] = {initial: saturate(
            frozenset({TOP}), self.externals, columns=self.columns,
            taxonomies=self.taxonomies, memo=self._derivations,
        )}
        self.state_probs: dict[str, Fraction] = {initial: Fraction(1)}
        self.closed: set[str] = set()
        self._parent: dict[str, str] = {}
        self._sources: set[str] = set()
        # states whose saturated tag passed the policy check
        self._consistent: set[str] = set()
        # state -> ((secrets, mode, normalizer), rho of its saturated tag)
        self._rho: dict[str, tuple[tuple, Fraction | None]] = {}
        # ground tuple cells -> rho to the secrets, under `_distance_key`
        self._distance_key: tuple | None = None
        self._distances: dict[tuple, Fraction | None] = {}

    def add_transition(
        self,
        source: str,
        action: str,
        branches: Iterable[tuple[str, Fraction, Label]],
    ) -> list[str]:
        if source == self.stop:
            raise DlttsError("Stop has no outgoing transitions")
        if source not in self.tags:
            raise DlttsError(f"unknown source state {source!r}")
        if source in self.closed:
            raise DlttsError(f"state {source!r} is closed by a violation")
        branch_objs = []
        new_states = []
        total = Fraction(0)
        for to, prob, label in branches:
            prob = Fraction(prob)
            if prob <= 0:
                raise DlttsError(f"branch probability {prob} is not positive")
            total += prob
            if to in self.tags or to == self.stop or to == source:
                raise DlttsError(f"branch target {to!r} already exists")
            branch_objs.append(Branch(to, prob, label))
            new_states.append(to)
        if not branch_objs:
            raise DlttsError("transition needs at least one branch")
        if total != 1:
            raise DlttsError(f"branch probabilities sum to {total}, not 1")
        if len({b.to for b in branch_objs}) != len(branch_objs):
            raise DlttsError("duplicate branch target within one transition")
        self.transitions.append(Transition(source, action, tuple(branch_objs)))
        self._sources.add(source)
        parent_sat = self.saturated[source]
        for b in branch_objs:
            tag = parent_sat | b.label.tuples
            self.tags[b.to] = tag
            self.saturated[b.to] = saturate(
                tag, self.externals, columns=self.columns,
                taxonomies=self.taxonomies, closed=parent_sat,
                memo=self._derivations,
            )
            self.state_probs[b.to] = self.state_probs[source] * b.prob
            self._parent[b.to] = source
        return new_states

    def oracle_step(
        self,
        state: str,
        *,
        secret_set: Iterable[Sequence] | None = None,
        epsilon: Fraction | None = None,
        mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
        normalizer=None,
    ) -> OracleVerdict:
        if state == self.stop:
            raise DlttsError("the oracle never examines Stop")
        tag = self.saturated[state]
        parent = self._parent.get(state)

        def distance() -> Fraction | None:
            secrets = list(secret_set)
            key = (secrets, mode, normalizer)
            if key != self._distance_key:
                self._distance_key, self._distances = key, {}
            known = self._rho.get(parent)
            reuse = known is not None and known[0] == key
            r = known[1] if reuse else None
            for p in tag - self.saturated[parent] if reuse else tag:
                if not _is_knowledge(p):
                    continue
                if p.cells not in self._distances:
                    self._distances[p.cells] = rho(
                        [p.cells], secrets, mode,
                        taxonomies=self.taxonomies, normalizer=normalizer,
                    )
                d = self._distances[p.cells]
                if d is not None and (r is None or d < r):
                    r = d
            self._rho[state] = (key, r)
            return r

        verdict = _verdict(
            tag, self.policy, epsilon, None if secret_set is None else distance,
            self.saturated[parent] if parent in self._consistent else frozenset(),
        )
        if verdict is not OracleVerdict.VIOLATION:
            self._consistent.add(state)
        if verdict is not OracleVerdict.CONTINUE:
            if state in self._sources:
                raise DlttsError(
                    f"violating state {state!r} already has outgoing transitions"
                )
            self.transitions.append(
                Transition(state, DELTA, (Branch(self.stop, Fraction(1), Label("δ")),))
            )
            self._sources.add(state)
            self.closed.add(state)
        return verdict

    def build(self) -> Dltts:
        states = {self.initial, self.stop} | set(self.tags)
        for t in self.transitions:
            states.add(t.source)
            states.update(b.to for b in t.branches)
        return Dltts(
            initial=self.initial,
            stop=self.stop,
            states=frozenset(states),
            transitions=tuple(self.transitions),
            tags=dict(self.tags),
            saturated=dict(self.saturated),
            state_probs=dict(self.state_probs),
        )


def natural_key(name: str) -> list:
    """Sort key that orders embedded numbers by value: s2 before s10."""
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


@dataclass(frozen=True)
class Run:
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
    if dltts.initial not in dltts.states:
        problems.append(f"initial state {dltts.initial!r} not among states")
    if dltts.stop not in dltts.states:
        problems.append(f"stop state {dltts.stop!r} not among states")
    if dltts.tags.get(dltts.stop):
        problems.append("Stop carries a tag")
    seen_distr: set[tuple] = set()
    for t in dltts.transitions:
        if t.source == dltts.stop:
            problems.append("Stop has an outgoing transition")
        if t.source not in dltts.states:
            problems.append(f"transition from unknown state {t.source!r}")
        if not t.branches:
            problems.append(f"transition from {t.source!r} has no branches")
            continue
        total = Fraction(0)
        for b in t.branches:
            if b.to not in dltts.states:
                problems.append(f"branch to unknown state {b.to!r}")
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


def epsilon_equivalent_labels(
    dltts: Dltts,
    state: str,
    mechanism: "privacy.Mechanism",
    epsilon,
    *,
    alpha=None,
    instance_for: Mapping[str, object] | None = None,
) -> list[frozenset[Label]]:
    """Partition the outgoing branch labels at `state` into classes of
    pairwise epsilon-indistinguishable query instances.

    Each label maps to a mechanism input: through `instance_for` (keyed by
    label text or single line id), else by its single line id, else by its
    text.  Pairwise indistinguishability is not transitive, so classes are
    the connected components of the pairwise relation.
    """
    labels: list[Label] = []
    for t in dltts.outgoing(state):
        for b in t.branches:
            if b.label not in labels:
                labels.append(b.label)
    if not labels:
        return []

    def instance(label: Label):
        keys = []
        if len(label.lines) == 1:
            keys.append(next(iter(label.lines)))
        if label.text:
            keys.append(label.text)
        if instance_for:
            for k in keys:
                if k in instance_for:
                    return instance_for[k]
        for k in keys:
            if k in mechanism.inputs:
                return k
        raise DlttsError(f"no mechanism instance for label {label}")

    instances = {label: instance(label) for label in labels}
    if alpha is None:
        common = None
        for label in labels:
            support = set(mechanism.support(instances[label]))
            common = support if common is None else common & support
        if not common or len(common) > 1:
            raise DlttsError(
                "output alpha is ambiguous; pass it explicitly"
            )
        alpha = next(iter(common))

    parent = {label: label for label in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if privacy.is_eps_indistinguishable(
                mechanism, instances[a], instances[b], alpha, epsilon
            ):
                parent[find(a)] = find(b)
    groups: dict[Label, list[Label]] = {}
    for label in labels:
        groups.setdefault(find(label), []).append(label)
    return [frozenset(g) for g in groups.values()]


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
                prob = Fraction(parts[1].strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise DlttsError(f"{name}:{lineno}: bad probability") from exc
            label = _parse_label(",".join(parts[2:])) if len(parts) > 2 else Label()
            branches.append(Branch(to, prob, label))
        if not branches:
            raise DlttsError(f"{name}:{lineno}: empty branch list")
        transitions.append(Transition(source, action, tuple(branches)))
    states = {initial, stop}
    for t in transitions:
        states.add(t.source)
        states.update(b.to for b in t.branches)
    return Dltts(
        initial=initial,
        stop=stop,
        states=frozenset(states),
        transitions=tuple(transitions),
    )


def render_dltts(dltts: Dltts) -> str:
    """Serialize back to the transcript format (round-trips)."""
    out = [f"initial: {dltts.initial}", f"stop: {dltts.stop}"]
    for t in dltts.transitions:
        branches = []
        for b in t.branches:
            label = str(b.label)
            if b.label.source != "db":
                label = f"P_{b.label.source} {label}".strip()
            elif label:
                label = f"P_db {label}"
            part = f"({b.to}, {b.prob}" + (f", {label})" if label else ")")
            branches.append(part)
        out.append(f"{t.source} -> [{', '.join(branches)}] {t.action}")
    return "\n".join(out) + "\n"
