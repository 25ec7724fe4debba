"""The knowledge layer of tagged probabilistic transition systems.

On top of the core in `lts`, states carry *tags*: sets of signed ground
tuples, what the querying agent knows so far.  Tags are kept *tight*: the
tag of a branch target is the saturated tag of the source plus the branch
label's tuples.  Saturation closes a tag under three deduction rules
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
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

# `parse_dltts`, `reach_stop` and `validate` are not used here: the
# benchmark's tracer finds them under this module's name.
from .lts import (DELTA, Branch, Dltts, DlttsError, Label, Tag, Transition,
                  parse_dltts, reach_stop, validate)
from .schema import ColumnSchema, DataTable, PrivacyPolicy, TOP, TuplePattern
from .values import (ColumnClass, IntervalMeasureMode, Number, TaxonomyTree, Taxon,
                     Wildcard)

if TYPE_CHECKING:
    from .privacy import Mechanism


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
    """Single-owner construction of a tagged system.

    Tags are computed tightly from branch labels and saturated eagerly at
    state creation, each from its parent's saturated tag, and cached.
    `oracle_step` rules on a state under the oracle configuration the
    builder was made with (policy, secrets, epsilon, mode) and,
    on a violation, installs the `delta` transition to Stop as its only
    outgoing transition.

    A new state pays only for what it adds to its parent's saturated tag,
    which it contains.  Saturation reads one memo of each premise's R1-R3
    results, valid because the externals, columns and taxonomies are fixed
    for the builder's life.  When the parent's verdict was `continue`, its
    saturated tag passed both checks, so the state checks only the tuples
    it added: against the policy, and whether any added ground tuple lies
    within epsilon of a secret.  That answer is memoized by the tuple's
    cells, valid because the oracle configuration is fixed too.
    """

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
        initial: str = "s0",
        stop: str = "STOP",
    ) -> None:
        self.policy = policy or PrivacyPolicy(())
        self.externals = tuple(externals)
        self.columns = tuple(columns or ())
        self.taxonomies = _merged_taxonomies(self.externals, taxonomies)
        self.secrets = None if secrets is None else list(secrets)
        self.epsilon = epsilon
        self.mode = mode
        self.initial = initial
        self.stop = stop
        self.transitions: list[Transition] = []
        self._derivations: dict[TuplePattern, tuple[TuplePattern, ...]] = {}
        self._plans: dict[tuple, tuple] = {}
        self.tags: dict[str, Tag] = {initial: frozenset({TOP})}
        self.saturated: dict[str, Tag] = {initial: self._saturate(frozenset({TOP}))}
        self.state_probs: dict[str, Fraction] = {initial: Fraction(1)}
        self.closed: set[str] = set()
        self._parent: dict[str, str] = {}
        self._sources: set[str] = set()
        # states whose verdict was `continue`
        self._continued: set[str] = set()
        # ground tuple cells -> is the tuple within epsilon of a secret?
        self._within: dict[tuple, bool] = {}

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
            self.saturated[b.to] = self._saturate(tag, parent_sat)
            self.state_probs[b.to] = self.state_probs[source] * b.prob
            self._parent[b.to] = source
        return new_states

    def _saturate(self, tag: Tag, closed: Tag = frozenset()) -> Tag:
        return saturate(tag, self.externals, columns=self.columns,
                        taxonomies=self.taxonomies, closed=closed,
                        memo=self._derivations, plans=self._plans)

    def oracle_step(self, state: str) -> OracleVerdict:
        if state == self.stop:
            raise DlttsError("the oracle never examines Stop")
        tag = self.saturated[state]
        parent = self._parent.get(state)
        checked = self.saturated[parent] if parent in self._continued else frozenset()
        if not check_consistency(tag, self.policy, closed=checked):
            verdict = OracleVerdict.VIOLATION
        elif self._within_epsilon(tag - checked):
            verdict = OracleVerdict.EPSILON_VIOLATION
        else:
            self._continued.add(state)
            return OracleVerdict.CONTINUE
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
        return Dltts(
            initial=self.initial,
            stop=self.stop,
            transitions=tuple(self.transitions),
            tags=dict(self.tags),
            saturated=dict(self.saturated),
            state_probs=dict(self.state_probs),
        )


def epsilon_equivalent_labels(
    dltts: Dltts,
    state: str,
    mechanism: Mechanism,
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
