"""The knowledge layer of tagged probabilistic transition systems.

On top of the core in `lts`, the builder gives states *tags*: sets of
signed ground tuples, what the querying agent knows so far.  Tags are kept
*tight*: the tag of a branch target is the saturated tag of the source plus
the branch label's tuples.  Saturation closes a tag under three deduction rules
against the external bases:

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

A built system is a tree: `reach_stop` reads its runs to Stop off parent
links.  `validate` checks the structure of an explicit transcript.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

# `parse_dltts` is not used here: the benchmark's tracer finds it under
# this module's name.
from .lts import DELTA, Branch, Dltts, DlttsError, Label, Transition, parse_dltts
from .schema import ColumnSchema, DataTable, PrivacyPolicy, TOP, TuplePattern
from .values import (ColumnClass, IntervalMeasureMode, Number, Record, TaxonomyTree,
                     Taxon, Wildcard)

if TYPE_CHECKING:
    from .privacy import Mechanism

Tag = frozenset


def __getattr__(name: str):
    # `dltts.rho` names the metric layer's `rho`, as the benchmark's tracer
    # expects; that layer loads only when an armed oracle first measures
    # (see `_secret_rho`)
    if name == "rho":
        from .metrics import rho
        return rho
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _merged_taxonomies(
    externals: Sequence[DataTable],
    taxonomies: Mapping[str, TaxonomyTree] | None,
) -> dict[str, TaxonomyTree]:
    merged = dict(taxonomies or {})
    for table in externals:
        for name, tree in table.taxonomies.items():
            merged.setdefault(name, tree)
    return merged


def _plan(columns, mask, table: DataTable, is_id, taxonomies):
    """What R1-R3 derive against one base from a premise over `columns`
    whose wildcards sit where `mask` is true, as a function of the
    premise's cells: the cells the base shares, the R1 key, the R3 join,
    the R2 joins and the merge (the row fills the premise's wildcards on
    shared columns and adds its other columns) depend on that alone."""
    positions = table.column_positions
    shared = [(k, positions[c]) for k, c in enumerate(columns)
              if not mask[k] and c in positions]
    fill = [(k, positions[c]) for k, c in enumerate(columns)
            if mask[k] and c in positions]
    extra = [(c, i) for c, i in positions.items() if c not in columns]
    merged_columns = columns + tuple(c for c, _ in extra)

    def merge(cells, row):
        out = list(cells)
        for k, i in fill:
            out[k] = row.cells[i]
        out += [row.cells[i] for _, i in extra]
        return TuplePattern(merged_columns, tuple(out), False)

    count_col = next((c.name for c in table.columns if c.name.lower() == "count"
                      and c.cls is ColumnClass.NUMERICAL), None)
    if count_col is None:
        # R1: rows with p's first shared identifier cell that agree on
        # every shared cell.  R3: the one row matching p's shared
        # non-identifier cells, when p has an identifier cell.
        key = next((k for k, _ in shared if is_id.get(columns[k])), None)
        join = [k for k, _ in shared if not is_id.get(columns[k])]
        if not any(is_id.get(c) for c, m in zip(columns, mask) if not m):
            join = []
        join_columns = tuple(columns[k] for k in join)

        def derive(cells):
            if key is not None:
                for row in table.rows_by((columns[key],)).get((cells[key],), ()):
                    if all(row.cells[i] == cells[k] for k, i in shared):
                        yield merge(cells, row)
            if join:
                matches = table.rows_by(join_columns).get(
                    tuple(cells[k] for k in join), ())
                if len(matches) == 1:
                    yield merge(cells, matches[0])
        return derive

    # R2: count-1 rows agreeing on every other shared column, all concrete,
    # move a taxon cell down to their strictly deeper node.
    moves = []
    for k, i in shared:
        join = [m for m, c in enumerate(columns)
                if c in positions and c not in (columns[k], count_col)]
        if join and not any(mask[m] for m in join):
            moves.append((columns.index(columns[k]), k, i, join,
                          tuple(columns[m] for m in join) + (count_col,)))
    one = (Number(1),)

    def derive(cells):
        for at, k, i, join, join_columns in moves:
            x = cells[k]
            tree = taxonomies.get(x.tree) if isinstance(x, Taxon) else None
            if tree is None:
                continue
            for row in table.rows_by(join_columns).get(
                    tuple(cells[m] for m in join) + one, ()):
                y = row.cells[i]
                if (
                    isinstance(y, Taxon)
                    and y.tree == x.tree
                    and tree.is_strict_descendant(y.node, x.node)
                ):
                    yield TuplePattern(columns, cells[:at] + (y,) + cells[at + 1:])
    return derive


def saturate(
    tag: Tag,
    externals: Sequence[DataTable] = (),
    *,
    columns: Iterable[ColumnSchema] | None = None,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    closed: Tag = frozenset(),
    memo: dict[TuplePattern, tuple[TuplePattern, ...]] | None = None,
    plans: dict[tuple, tuple] | None = None,
    max_rounds: int = 1000,
) -> Tag:
    """Least fixpoint of R1-R3 over the tag against the external bases.

    Semi-naive: every rule has one premise, so each round applies the rules
    only to the tuples the round before added.  `closed` names a part of
    `tag` that is already closed under the rules (a parent state's
    saturated tag); it never enters the first round.  `memo` maps a premise
    to what R1-R3 derive from it, and `plans` a premise's shape (its
    columns and wildcard mask) to its `_plan` against each base; a caller
    may keep either across calls only while `externals`, `columns` and
    `taxonomies` stay the same.

    Raises DlttsError if the fixpoint is not reached within `max_rounds`
    (which would signal a rule bug: the closure is finite by construction).
    """
    memo = {} if memo is None else memo
    plans = {} if plans is None else plans
    # only a new plan reads the column groups and the trees
    is_id = trees = None
    current = set(tag)
    frontier = current - closed
    for _ in range(max_rounds + 1):
        new: set[TuplePattern] = set()
        for p in frontier:
            if p.negative or not p.columns:
                continue
            derived = memo.get(p)
            if derived is None:
                shape = (p.columns, tuple(v.__class__ is Wildcard for v in p.cells))
                rules = plans.get(shape)
                if rules is None:
                    if is_id is None:
                        is_id = {}
                        for col in [*(columns or ()),
                                    *(c for t in externals for c in t.columns)]:
                            is_id.setdefault(col.name, col.group == "identifier")
                        trees = _merged_taxonomies(externals, taxonomies)
                    rules = plans[shape] = tuple(
                        _plan(*shape, t, is_id, trees) for t in externals)
                derived = memo[p] = tuple(q for rule in rules for q in rule(p.cells))
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
        if p.negation in tag:
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


def _secret_rho(knowledge, secrets, mode, taxonomies, at_most) -> Fraction | None:
    """rho between the knowledge tuples and the secrets, over the pairs
    within `at_most`.  A DataTable stands for its rows, measured with its
    declared normalizers; a bare cell tuple has none."""
    from .metrics import rho

    found = [
        rho(knowledge, s.rows, mode, taxonomies=taxonomies,
            normalizer=s.normalizers, at_most=at_most)
        if isinstance(s, DataTable)
        else rho(knowledge, [s], mode, taxonomies=taxonomies, at_most=at_most)
        for s in secrets
    ]
    return min((r for r in found if r is not None), default=None)


class DlttsBuilder:
    """Single-owner construction of a tagged system, judged as it grows.

    A state's tag is its parent's saturated tag plus its branch label's
    tuples.  It is saturated as the state is made, and only the saturated
    tag is kept, in `saturated`; a built system carries no tags.  The
    oracle rules on every state as the builder makes it, under the
    configuration the builder was made with (policy, secrets, epsilon,
    mode), and records the ruling in `verdicts`.  A violating state gets
    the `delta` transition to Stop as its only outgoing transition.

    A new state pays only for what it adds to its parent's saturated tag,
    which it contains.  Saturation reads one memo of each premise's R1-R3
    results, valid because the externals, columns and taxonomies are fixed
    for the builder's life.  Only a state whose verdict was `continue`
    takes transitions, so a parent's saturated tag passed both checks and
    a child checks only the tuples it added: against the policy, and
    whether any added ground tuple lies within epsilon of a secret.  That
    answer is memoized by the tuple's cells, valid because the oracle
    configuration is fixed too.
    """

    initial = "s0"
    stop = "STOP"

    def __init__(
        self,
        *,
        policy: PrivacyPolicy | None = None,
        externals: Sequence[DataTable] = (),
        columns: Iterable[ColumnSchema] | None = None,
        taxonomies: Mapping[str, TaxonomyTree] | None = None,
        secrets: Iterable[Sequence | DataTable] | None = None,
        epsilon: Fraction | None = None,
        mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    ) -> None:
        self.policy = policy or PrivacyPolicy(())
        self.externals = tuple(externals)
        self.columns = tuple(columns or ())
        self.taxonomies = _merged_taxonomies(self.externals, taxonomies)
        self.secrets = None if secrets is None else list(secrets)
        self.epsilon = epsilon
        self.mode = mode
        self.transitions: list[Transition] = []
        self._derivations: dict[TuplePattern, tuple[TuplePattern, ...]] = {}
        self._plans: dict[tuple, tuple] = {}
        self.saturated: dict[str, Tag] = {self.initial: self._saturate(frozenset({TOP}))}
        self.state_probs: dict[str, Fraction] = {self.initial: Fraction(1)}
        self.verdicts: dict[str, OracleVerdict] = {}
        # ground tuple cells -> is the tuple within epsilon of a secret?
        self._within: dict[tuple, bool] = {}
        self.oracle_step(self.initial, frozenset())

    def add_transition(
        self,
        source: str,
        action: str,
        branches: Iterable[tuple[str, Fraction, Label]],
    ) -> None:
        if source == self.stop:
            raise DlttsError("Stop has no outgoing transitions")
        if action == DELTA:
            raise DlttsError(f"action {DELTA!r} is reserved for the oracle's "
                             "move to Stop")
        if source not in self.verdicts:
            raise DlttsError(f"unknown source state {source!r}")
        if self.verdicts[source] is not OracleVerdict.CONTINUE:
            raise DlttsError(f"state {source!r} is closed by a violation")
        branch_objs = []
        total = Fraction(0)
        for to, prob, label in branches:
            prob = Fraction(prob)
            if prob <= 0:
                raise DlttsError(f"branch probability {prob} is not positive")
            total += prob
            if to in self.saturated or to == self.stop:
                raise DlttsError(f"branch target {to!r} already exists")
            branch_objs.append(Branch(to, prob, label))
        if not branch_objs:
            raise DlttsError("transition needs at least one branch")
        if total != 1:
            raise DlttsError(f"branch probabilities sum to {total}, not 1")
        if len({b.to for b in branch_objs}) != len(branch_objs):
            raise DlttsError("duplicate branch target within one transition")
        self.transitions.append(Transition(source, action, tuple(branch_objs)))
        parent_sat = self.saturated[source]
        for b in branch_objs:
            self.saturated[b.to] = self._saturate(parent_sat | b.label.tuples, parent_sat)
            self.state_probs[b.to] = self.state_probs[source] * b.prob
        for b in branch_objs:
            self.oracle_step(b.to, parent_sat)

    def _saturate(self, tag: Tag, closed: Tag = frozenset()) -> Tag:
        return saturate(tag, self.externals, columns=self.columns,
                        taxonomies=self.taxonomies, closed=closed,
                        memo=self._derivations, plans=self._plans)

    def oracle_step(self, state: str, checked: Tag) -> None:
        """Rule on the new `state` and record the verdict: `checked` is the
        part of its saturated tag that already passed both checks."""
        tag = self.saturated[state]
        if not check_consistency(tag, self.policy, closed=checked):
            verdict = OracleVerdict.VIOLATION
        elif self._within_epsilon(tag - checked):
            verdict = OracleVerdict.EPSILON_VIOLATION
        else:
            verdict = OracleVerdict.CONTINUE
        self.verdicts[state] = verdict
        if verdict is not OracleVerdict.CONTINUE:
            self.transitions.append(
                Transition(state, DELTA, (Branch(self.stop, Fraction(1), Label("δ")),))
            )

    def _within_epsilon(self, tuples: Iterable[TuplePattern]) -> bool:
        """Is some ground tuple among `tuples` within epsilon of a secret?
        Every one is measured, so an uncomparable pair raises whatever order
        the set is iterated in."""
        if self.epsilon is None or self.secrets is None:
            return False
        knowledge = [p.cells for p in tuples if _is_knowledge(p)]
        within = self._within
        for cells in knowledge:
            if cells not in within:
                within[cells] = _secret_rho([cells], self.secrets, self.mode,
                                            self.taxonomies, self.epsilon) is not None
        return any(within[cells] for cells in knowledge)

    def build(self) -> Dltts:
        return Dltts(self.initial, self.stop, tuple(self.transitions),
                     dict(self.state_probs))


class Run(Record):
    """One run into Stop: its states, actions and exact probability."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    probability: Fraction


def reach_stop(dltts: Dltts) -> tuple[bool, tuple[Run, ...]]:
    """All runs from the initial state that end in Stop, each with the exact
    product of its branch probabilities, most probable first.  In a tree,
    as the builder makes, each branch into Stop ends at most one run, read
    by walking parent links up to the initial state in time linear in its
    length.  A state entered twice raises DlttsError naming it, so a graph
    that is not a tree never gets a wrong answer."""
    initial, stop = dltts.initial, dltts.stop
    if initial == stop:
        return (True, (Run((stop,), (), Fraction(1)),))
    parent: dict[str, tuple[Transition, Branch]] = {}
    into_stop: list[tuple[Transition, Branch]] = []
    for t in dltts.transitions:
        for b in t.branches:
            if b.to == stop:
                into_stop.append((t, b))
            elif b.to in parent or b.to == initial:
                raise DlttsError(f"state {b.to!r} is entered twice: not a tree")
            else:
                parent[b.to] = (t, b)
    runs: list[Run] = []
    for edge in into_stop:
        states, actions, prob = [stop], [], Fraction(1)
        # a chain longer than the states that have parents is a loop
        while edge is not None and len(states) <= len(parent) + 1:
            t, b = edge
            states.append(t.source)
            actions.append(t.action)
            prob *= b.prob
            edge = parent.get(t.source)
        if edge is None and states[-1] == initial:
            runs.append(Run(tuple(reversed(states)), tuple(reversed(actions)), prob))
    runs.sort(key=lambda r: (-r.probability, r.states))
    return (bool(runs), tuple(runs))


def validate(dltts: Dltts) -> list[str]:
    """Invariant check; empty list iff the system is well-formed."""
    problems: list[str] = []
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
                problems.append(f"branch {t.source}->{b.to} has non-positive probability")
            total += b.prob
        if total != 1:
            problems.append(
                f"probabilities from {t.source!r} under {t.action!r} sum to {total}"
            )
        if len({b.to for b in t.branches}) != len(t.branches):
            problems.append(f"duplicate branch target from {t.source!r}")
        key = (t.source, frozenset((b.to, b.prob) for b in t.branches))
        if key in seen_distr:
            problems.append(f"two transitions from {t.source!r} share one distribution")
        seen_distr.add(key)
        if t.action == DELTA:
            if len(t.branches) != 1 or t.branches[0].to != dltts.stop:
                problems.append(f"delta from {t.source!r} must go to Stop alone")
            elif t.branches[0].prob != 1:
                problems.append(f"delta from {t.source!r} must have probability 1")
    return problems


def epsilon_equivalent_labels(
    dltts: Dltts,
    state: str,
    mechanism: Mechanism,
    epsilon,
    *,
    alpha=None,
) -> list[frozenset[Label]]:
    """Partition the outgoing branch labels at `state` into classes of
    pairwise epsilon-indistinguishable query instances.

    Each label maps to a mechanism input: its single line id, else its
    text.  Pairwise indistinguishability is not transitive, so classes are
    the connected components of the pairwise relation, in the order of
    their first label.
    """
    from . import privacy

    labels = list(dict.fromkeys(
        b.label for t in dltts.outgoing(state) for b in t.branches
    ))
    if not labels:
        return []

    def instance(label: Label):
        keys = []
        if len(label.lines) == 1:
            keys.append(next(iter(label.lines)))
        if label.text:
            keys.append(label.text)
        for k in keys:
            if k in mechanism.inputs:
                return k
        raise DlttsError(f"no mechanism instance for label {label}")

    instances = {label: instance(label) for label in labels}
    if alpha is None:
        common = set(mechanism.outputs).intersection(
            *map(mechanism.support, instances.values())
        )
        if len(common) != 1:
            raise DlttsError("output alpha is ambiguous; pass it explicitly")
        (alpha,) = common

    # |ln p - ln p'| <= epsilon relates points of a line, so its connected
    # components are the runs of the labels sorted by p whose neighbours
    # are related
    ranked = sorted(labels, key=lambda label: mechanism.prob(instances[label], alpha))
    run_of = {ranked[0]: 0}
    for a, b in zip(ranked, ranked[1:]):
        run_of[b] = run_of[a] + (not privacy.is_eps_indistinguishable(
            mechanism, instances[a], instances[b], alpha, epsilon
        ))
    groups: dict[int, list[Label]] = {}
    for label in labels:
        groups.setdefault(run_of[label], []).append(label)
    return [frozenset(g) for g in groups.values()]
