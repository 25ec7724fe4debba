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
`oracle_bound` and `resolve_secret` read what arms the oracle: the
`--epsilon` bound and the `--secret` rows.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .lts import DELTA, Branch, Dltts, Label, Transition, transition_problems
from .records import InputError, Record, parse_fraction
from .schema import ColumnSchema, DataTable, PrivacyPolicy, TOP, TuplePattern
from .values import ColumnClass, IntervalMeasureMode, Number, Taxon, Wildcard

Tag = frozenset


def __getattr__(name: str):
    # `dltts.rho` and `dltts.parse_dltts` name the metric layer's `rho` and
    # the transcript reader, as the benchmark's tracer expects.  Neither
    # module is imported at load, so a report loads `metrics` only when an
    # armed oracle first measures (see `_secret_rho`), and `transcript`
    # only when its scenario names transcripts
    if name == "rho":
        from .metrics import rho
        return rho
    if name == "parse_dltts":
        from .transcript import parse_dltts
        return parse_dltts
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _plan(columns, mask, table: DataTable, is_id):
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
            if not isinstance(x, Taxon):
                continue
            for row in table.rows_by(join_columns).get(
                    tuple(cells[m] for m in join) + one, ()):
                y = row.cells[i]
                if (
                    isinstance(y, Taxon)
                    and y.tree.name == x.tree.name
                    and x.tree.is_strict_descendant(y.node, x.node)
                ):
                    yield TuplePattern(columns, cells[:at] + (y,) + cells[at + 1:])
    return derive


def saturate(
    tag: Tag,
    externals: Sequence[DataTable] = (),
    *,
    columns: Iterable[ColumnSchema] | None = None,
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
    may keep either across calls only while `externals` and `columns` stay
    the same.  R2 refines a taxon in the tree the taxon carries.

    Raises InputError if the fixpoint is not reached within `max_rounds`
    (which would signal a rule bug: the closure is finite by construction).
    """
    memo = {} if memo is None else memo
    plans = {} if plans is None else plans
    # only a new plan reads the column groups
    is_id = None
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
                    rules = plans[shape] = tuple(
                        _plan(*shape, t, is_id) for t in externals)
                derived = memo[p] = tuple(q for rule in rules for q in rule(p.cells))
            new.update(derived)
        new -= current
        if not new:
            return frozenset(current)
        current |= new
        frontier = new
    raise InputError(f"saturation did not reach a fixpoint in {max_rounds} rounds")


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


def oracle_armed(epsilon: Fraction | None, secrets) -> bool:
    """Does the oracle check epsilon?  Only with both a bound and secrets:
    without either, a builder makes the unarmed system."""
    return epsilon is not None and secrets is not None


def oracle_bound(text: str, secret: list[str]) -> Fraction:
    """The oracle's bound on rho, a distance: an exact non-negative
    fraction or decimal, so a state at exactly the typed bound is caught.
    It measures the `secret` rows, so at least one must be given."""
    try:
        bound = parse_fraction(text.strip().replace(" ", ""))
    except InputError as exc:
        raise InputError(f"--epsilon {text!r}: {exc}; the oracle bounds rho, a "
                         "distance, not an ln(...) epsilon") from None
    if bound < 0:
        raise InputError(f"--epsilon {text!r} is negative")
    if not secret:
        raise InputError("--epsilon needs at least one --secret TABLE:LINE")
    return bound


def resolve_secret(table: Callable[[str], DataTable], refs: list[str]) -> list[DataTable]:
    """Resolve `table:line` references, each table found by name with
    `table`, into copies of their tables holding just those rows, so that
    each secret keeps its table's normalizers."""
    rows: dict[str, dict] = {}
    for ref in refs:
        table_name, _, line = ref.partition(":")
        if not line:
            raise InputError(f"secret reference {ref!r} is not table:line")
        rows.setdefault(table_name, {})[line] = table(table_name).row(line)
    return [table(name).replace(rows=tuple(by_line.values()))
            for name, by_line in rows.items()]


def _is_knowledge(p: TuplePattern) -> bool:
    """Does rho read p: a star-free positive tuple over some columns?"""
    return not p.negative and bool(p.columns) and p.is_ground()


def _secret_rho(knowledge, secrets, mode, at_most) -> Fraction | None:
    """rho between the knowledge tuples and the secrets, over the pairs
    within `at_most`.  A DataTable stands for its rows, measured with its
    declared normalizers; a bare cell tuple has none."""
    from .metrics import rho

    found = [
        rho(knowledge, s.rows, mode, normalizer=s.normalizers, at_most=at_most)
        if isinstance(s, DataTable)
        else rho(knowledge, [s], mode, at_most=at_most)
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
    results, valid because the externals and columns are fixed for the
    builder's life.  Only a state whose verdict was `continue`
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
        secrets: Iterable[Sequence | DataTable] | None = None,
        epsilon: Fraction | None = None,
        mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    ) -> None:
        self.policy = policy or PrivacyPolicy(())
        self.externals = tuple(externals)
        self.columns = tuple(columns or ())
        self.secrets = None if secrets is None else list(secrets)
        self.epsilon = epsilon
        self.mode = mode
        self.transitions: list[Transition] = []
        self._derivations: dict[TuplePattern, tuple[TuplePattern, ...]] = {}
        self._plans: dict[tuple, tuple] = {}
        self.saturated: dict[str, Tag] = {self.initial: self._saturate(frozenset({TOP}))}
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
        """The builder's own rules come before the transition's (`lts`), but
        a transition out of Stop is refused as such."""
        t = Transition(source, action, tuple(
            Branch(to, Fraction(prob), label) for to, prob, label in branches))
        if source != self.stop:
            if action == DELTA:
                raise InputError(f"action {DELTA!r} is reserved for the oracle's "
                                 "move to Stop")
            if source not in self.verdicts:
                raise InputError(f"unknown source state {source!r}")
            if self.verdicts[source] is not OracleVerdict.CONTINUE:
                raise InputError(f"state {source!r} is closed by a violation")
            for b in t.branches:
                if b.to in self.saturated or b.to == self.stop:
                    raise InputError(f"branch target {b.to!r} already exists")
        problem = next(transition_problems(t, self.stop), None)
        if problem is not None:
            raise InputError(problem)
        self.transitions.append(t)
        parent_sat = self.saturated[source]
        for b in t.branches:
            self.saturated[b.to] = self._saturate(parent_sat | b.label.tuples, parent_sat)
        for b in t.branches:
            self.oracle_step(b.to, parent_sat)

    def _saturate(self, tag: Tag, closed: Tag = frozenset()) -> Tag:
        return saturate(tag, self.externals, columns=self.columns, closed=closed,
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
        if not oracle_armed(self.epsilon, self.secrets):
            return False
        knowledge = [p.cells for p in tuples if _is_knowledge(p)]
        within = self._within
        for cells in knowledge:
            if cells not in within:
                within[cells] = _secret_rho([cells], self.secrets, self.mode,
                                            self.epsilon) is not None
        return any(within[cells] for cells in knowledge)

    def build(self) -> Dltts:
        return Dltts(self.initial, self.stop, tuple(self.transitions))


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
    length.  A state entered twice raises InputError naming it, so a graph
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
                raise InputError(f"state {b.to!r} is entered twice: not a tree")
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
    """Each transition's problems (`lts`), then whether it shares its
    distribution with an earlier transition from its state; empty iff valid."""
    problems: list[str] = []
    seen_distr: set[tuple] = set()
    for t in dltts.transitions:
        problems += transition_problems(t, dltts.stop)
        key = (t.source, frozenset((b.to, b.prob) for b in t.branches))
        if t.branches and key in seen_distr:
            problems.append(f"two transitions from {t.source!r} share one distribution")
        seen_distr.add(key)
    return problems
