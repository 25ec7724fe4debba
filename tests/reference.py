"""Reference implementations the tests check the library against: the
per-cell distance vector and the whole-sum rho over it, the per-premise
R1-R3 derivation, which the planned ones replaced, the oracle's whole-tag
ruling, the recursive attack-tree builder, which rescans each level's rows
per value, the transcript parser over a per-character bracket walk, whose
`split_top_level` is also the oracle of the library's one-pass scanner,
the sort key that read each run of digits in a name with `int`, which
`lts.natural_key` replaced so that a run past the interpreter's limit on
the digits it converts is still a name, the multiset order on priority
keys, the builder's inline transition checks
and the transcript validator, which `lts.transition_problems` replaced as
the one statement of a transition's rules, the two-coin randomized
response mechanism, and the argparse parser the command line was read
with before `cli.read_argv` (the oracle of its differential test)."""

from __future__ import annotations

import argparse
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from privtrace.attack import AttackDltts, _priority_key, _switched
from privtrace.dltts import (
    OracleVerdict,
    Tag,
    _is_knowledge,
    check_consistency,
)
from privtrace.lts import DELTA, Branch, Dltts, Label, Transition
from privtrace.metrics import (
    _cells,
    corresponding,
    d_eucl,
    d_nom,
    d_num,
    d_wp,
)
from privtrace.privacy import Mechanism
from privtrace.profiles import AttackerProfile, _sensitive_value
from privtrace.records import InputError, parse_fraction
from privtrace.schema import (
    ColumnSchema,
    DataTable,
    PrivacyPolicy,
    Row,
    TuplePattern,
)
from privtrace.values import (
    Atom,
    AtomSet,
    ColumnClass,
    IntervalMeasureMode,
    IntInterval,
    Number,
    Taxon,
    Value,
    Wildcard,
    render_cell,
    value_kind,
)


def cell_distance(
    v: Value,
    v2: Value,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    normalizer: Fraction | None = None,
) -> Fraction:
    """The per-class metric of one corresponding cell pair, each operand
    checked as it is reached; a taxon pair is measured in the first
    taxon's tree."""
    if isinstance(v, (Atom, AtomSet)) and isinstance(v2, (Atom, AtomSet)):
        return d_nom(v, v2)
    if isinstance(v, IntInterval) and isinstance(v2, IntInterval):
        return d_num(v, v2, mode)
    if isinstance(v, Number) and isinstance(v2, Number):
        if normalizer is None:
            raise InputError("numerical cells need an explicit normalizer D")
        return d_eucl(v, v2, normalizer)
    if isinstance(v, Taxon) and isinstance(v2, Taxon):
        if v.tree.name != v2.tree.name:
            raise InputError(
                f"taxons from different trees: {v.tree.name}, {v2.tree.name}")
        return d_wp(v.tree, v, v2)
    raise InputError(f"no distance between {v!r} and {v2!r}")


def type_compatible(
    t: Sequence[Value] | Row, t2: Sequence[Value] | Row
) -> tuple[tuple[int, int], ...] | None:
    """The corresponding positions of two tuples, by their cells' kinds;
    None when the tuples are uncomparable."""
    t, t2 = _cells(t), _cells(t2)
    return corresponding([value_kind(v) for v in t], [value_kind(v) for v in t2])


def d_vector(
    t: Sequence[Value] | Row,
    t2: Sequence[Value] | Row,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> tuple[Fraction, ...]:
    """The distance vector, one `cell_distance` per corresponding pair."""
    a, b = _cells(t), _cells(t2)
    pairs = type_compatible(a, b)
    if pairs is None:
        raise InputError("uncomparable tuples")
    per_pair = isinstance(normalizer, Mapping)
    return tuple(
        cell_distance(
            a[i], b[j], mode,
            normalizer=normalizer.get(j) if per_pair else normalizer,
        )
        for i, j in pairs
    )


def d_bar(t, t2, mode=IntervalMeasureMode.INTEGER_SET, **kwargs) -> Fraction:
    """The sum of the per-cell distance vector."""
    return sum(d_vector(t, t2, mode, **kwargs), Fraction(0))


def hamming(t: Sequence[Value] | Row, t2: Sequence[Value] | Row) -> int | None:
    """The count of corresponding positions whose values differ."""
    a, b = _cells(t), _cells(t2)
    pairs = type_compatible(a, b)
    return None if pairs is None else sum(a[i] != b[j] for i, j in pairs)


def rho(
    S: Iterable[Sequence[Value] | Row],
    S2: Iterable[Sequence[Value] | Row],
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> Fraction | None:
    """min { d̄(t,t') : t in S, t' in S' } over type-compatible pairs, each
    pair's whole distance vector summed; None when no pair is comparable."""
    best: Fraction | None = None
    for t in S:
        for t2 in S2:
            if type_compatible(t, t2) is None:
                continue
            d = d_bar(t, t2, mode, normalizer=normalizer)
            if best is None or d < best:
                best = d
    return best


def replace_cell(p: TuplePattern, column: str, value) -> TuplePattern:
    """p with its cell in `column` (the first of that name) replaced."""
    i = p.columns.index(column)
    return TuplePattern(p.columns, p.cells[:i] + (value,) + p.cells[i + 1:], p.negative)


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
    # cell down to their strictly deeper node, in the taxon's own tree.
    for c, x in shared:
        if not isinstance(x, Taxon):
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
                and y.tree.name == x.tree.name
                and x.tree.is_strict_descendant(y.node, x.node)
            ):
                yield replace_cell(p, c, y)


def derivations(
    p: TuplePattern,
    externals: Sequence[DataTable],
    columns: Iterable[ColumnSchema] | None = None,
) -> tuple[TuplePattern, ...]:
    """What R1-R3 derive from the premise p against every base, in order,
    with the identifier columns `saturate` reads."""
    is_id: dict[str, bool] = {}
    for col in [*(columns or ()), *(c for t in externals for c in t.columns)]:
        is_id.setdefault(col.name, col.group == "identifier")
    return tuple(q for table in externals
                 for q in _derive(p, table, _count_column(table), is_id))


def oracle_verdict(
    saturated_tag: Tag,
    policy: PrivacyPolicy,
    secret_set: Iterable[Sequence | DataTable] | None = None,
    epsilon: Fraction | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> OracleVerdict:
    """The oracle's ruling on a whole saturated tag: the policy check first,
    then rho <= epsilon between its knowledge tuples and the secrets, armed
    only when both are given.  `DlttsBuilder` rules on each state as it
    makes it, on what the state adds to its parent; this rules on the
    whole tag."""
    if not check_consistency(saturated_tag, policy):
        return OracleVerdict.VIOLATION
    if epsilon is not None and secret_set is not None:
        knowledge = [p.cells for p in saturated_tag if _is_knowledge(p)]
        found = [
            rho(knowledge, s.rows, mode, normalizer=s.normalizers)
            if isinstance(s, DataTable)
            else rho(knowledge, [s], mode)
            for s in secret_set
        ]
        r = min((r for r in found if r is not None), default=None)
        if r is not None and r <= epsilon:
            return OracleVerdict.EPSILON_VIOLATION
    return OracleVerdict.CONTINUE


def build_attack_dltts(db: DataTable, profile: AttackerProfile) -> AttackDltts:
    """One query level per profile attribute, then a uniform split to
    singleton leaves, then a response(l) transition at every
    singleton-labeled node: one recursive call per level, each value's
    rows found by a rescan of the parent's."""
    qid_names = {c.name for c in db.columns if c.group == "quasi-identifier"}
    for col in profile.attribute_order:
        if col not in qid_names:
            raise InputError(f"profile {profile.name}: {col!r} is not a qid column")
    for col, table in profile.priors.items():
        idx = db.column_index(col)
        present = {row.cells[idx] for row in db.rows}
        missing = present - set(table)
        if missing:
            raise InputError(
                f"profile {profile.name}: no prior for {col} value(s) "
                f"{sorted(map(str, missing))}"
            )

    transitions: list[Transition] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"s{counter[0]}"

    def level_branches(col: str, rows) -> list[tuple[Value, Fraction, str]]:
        values: list[Value] = []
        idx = db.column_index(col)
        for row in rows:
            if row.cells[idx] not in values:
                values.append(row.cells[idx])
        if len(values) == 1:
            return [(values[0], Fraction(1), "db")]
        priors = profile.priors.get(col)
        if priors is not None:
            zero = sorted(str(v) for v in values if priors[v] == 0)
            if zero:
                every = " all" if len(zero) == len(values) else ""
                raise InputError(f"profile {profile.name}: {col} values {zero} at "
                                 f"one query level{every} have prior 0")
            total = sum((priors[v] for v in values), Fraction(0))
            source = "db" if profile.empirical else profile.name
            return [(v, priors[v] / total, source) for v in values]
        n = len(rows)
        return [
            (v, Fraction(sum(1 for r in rows if r.cells[idx] == v), n), "db")
            for v in values
        ]

    def expand(state: str, rows, depth: int) -> None:
        if depth == len(profile.attribute_order) or not rows:
            if len(rows) <= 1:
                return
            prob = Fraction(1, len(rows))
            branches = [
                Branch(fresh(), prob, Label(lines=frozenset({r.line_id})))
                for r in rows
            ]
            transitions.append(Transition(state, "pick", tuple(branches)))
            return
        col = profile.attribute_order[depth]
        idx = db.column_index(col)
        branches = []
        groups = []
        for v, prob, source in level_branches(col, rows):
            matching = [r for r in rows if r.cells[idx] == v]
            label = Label(
                text=f"{col}={render_cell(v)}",
                lines=frozenset(r.line_id for r in matching),
                source=source,
            )
            child = fresh()
            branches.append(Branch(child, prob, label))
            groups.append((child, matching))
        transitions.append(Transition(state, f"query:{col}", tuple(branches)))
        for child, matching in groups:
            expand(child, matching, depth + 1)

    expand("s0", list(db.rows), 0)

    dltts = Dltts(initial="s0", stop="STOP", transitions=tuple(transitions))
    return _switched(profile.name, dltts, (),
                     lambda line: _sensitive_value(db, line), assumed=False)


def builder_refusal(
    source: str,
    action: str,
    branches: Iterable[tuple[str, Fraction, Label]],
    *,
    stop: str,
    verdicts: Mapping[str, OracleVerdict],
    existing: Iterable[str],
) -> str | None:
    """What the builder's `add_transition` refused, with its states ruled
    by `verdicts` and the states in `existing` made, checking each rule
    inline and in its own wording; None when it accepts the transition."""
    if source == stop:
        return "Stop has no outgoing transitions"
    if action == DELTA:
        return f"action {DELTA!r} is reserved for the oracle's move to Stop"
    if source not in verdicts:
        return f"unknown source state {source!r}"
    if verdicts[source] is not OracleVerdict.CONTINUE:
        return f"state {source!r} is closed by a violation"
    existing = set(existing)
    targets = []
    total = Fraction(0)
    for to, prob, _ in branches:
        prob = Fraction(prob)
        if prob <= 0:
            return f"branch probability {prob} is not positive"
        total += prob
        if to in existing or to == stop:
            return f"branch target {to!r} already exists"
        targets.append(to)
    if not targets:
        return "transition needs at least one branch"
    if total != 1:
        return f"branch probabilities sum to {total}, not 1"
    if len(set(targets)) != len(targets):
        return "duplicate branch target within one transition"
    return None


def validate(dltts: Dltts) -> list[str]:
    """Every structural problem of a transcript, each rule checked inline
    per transition, in the order the checks run."""
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


def split_top_level(text: str) -> list[str]:
    """Split on commas outside any (), [], {} nesting, by a walk over the
    characters: the oracle for the library's one-pass scanner."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


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


def _parse_transition(line: str) -> Transition:
    """One transition line: its branch list and optional action."""
    source, rest = (part.strip() for part in line.split("->", 1))
    if not rest.startswith("["):
        raise ValueError("expected a branch list")
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
        raise ValueError("unterminated branch list")
    action = rest[end + 1 :].strip() or "query"
    branches = []
    for chunk in split_top_level(rest[1:end]):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad branch {chunk!r}")
        parts = split_top_level(chunk[1:-1])
        if len(parts) < 2:
            raise ValueError("branch needs target and prob")
        to = parts[0].strip()
        try:
            prob = parse_fraction(parts[1].strip())
        except ValueError as exc:
            raise ValueError(f"bad probability: {exc}") from exc
        label = _parse_label(",".join(parts[2:])) if len(parts) > 2 else Label()
        branches.append(Branch(to, prob, label))
    if not branches:
        raise ValueError("empty branch list")
    return Transition(source, action, tuple(branches))


def parse_dltts(text: str, name: str = "dltts") -> Dltts:
    """The transcript parser that splits each bracket level by a walk over
    its characters (`split_top_level` above).  It reads the explicit
    transcript format::

        initial: s0
        stop: STOP
        s0 -> [(s1, 3/4, P_db age=[30-40] {l1,l2,l3}), (s2, 1/4, ...)] query:Age

    Transition lines list branches as (target, probability, label); the
    label may start with a provenance marker (P_db, P_N, P_b, ...) and may
    embed a {line,ids} set.  The action after the bracket list is optional.
    A malformed line raises InputError naming `name` and its line number.
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
            raise InputError(f"{name}:{lineno}: cannot parse {raw!r}")
        try:
            transitions.append(_parse_transition(line))
        except ValueError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from exc
    return Dltts(initial=initial, stop=stop, transitions=tuple(transitions))


def natural_key(name: str) -> list:
    """Sort key that orders embedded numbers by value: s2 before s10."""
    return [int(p) if i % 2 else p for i, p in enumerate(re.split(r"(\d+)", name))]


class Comparison(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"


def multiset_compare(
    m1: Iterable[Fraction], m2: Iterable[Fraction]
) -> Comparison:
    """The order the priority pass puts on two transitions' branch
    probabilities, through the key it compares (`attack._priority_key`):
    descending-sorted lexicographic, a proper prefix smaller.  EQUAL iff
    the multisets are identical."""
    k1, k2 = _priority_key(m1), _priority_key(m2)
    if k1 == k2:
        return Comparison.EQUAL
    return Comparison.GREATER if k1 > k2 else Comparison.LESS


def randomized_response() -> tuple[Mechanism, Mechanism]:
    """The two-coin randomized response mechanism, as (full, marginal).

    `full` maps the 8 explicit instances (X, F1, F2) deterministically:
    output X if F1=H, True if F1=T and F2=H, else False.  `marginal` is the
    coin-marginalized view (X alone, output probabilities 3/4 and 1/4) that
    the privacy bounds are stated over."""
    full_table = {}
    for x in ("True", "False"):
        for f1 in ("H", "T"):
            for f2 in ("H", "T"):
                out = x if f1 == "H" else "True" if f2 == "H" else "False"
                full_table[((x, f1, f2), out)] = Fraction(1)
    full = Mechanism("rr-instances", tuple(v for v, _ in full_table),
                     ("True", "False"), full_table)
    marginal = Mechanism.from_rows(
        "rr",
        {
            "True": {"True": Fraction(3, 4), "False": Fraction(1, 4)},
            "False": {"True": Fraction(1, 4), "False": Fraction(3, 4)},
        },
        outputs=("True", "False"),
    )
    return full, marginal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privtrace",
        description="privacy analysis over anonymized tables and query traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    p = sub.add_parser("metric", help="pairwise distances over table rows")
    common(p)
    p.add_argument("--pair", nargs=2, metavar=("LINE", "LINE"), required=True)
    p.add_argument("--mode", choices=["integer-set", "paper-compat"],
                   default="integer-set")
    p.add_argument("--table", help="table name (default: the scenario's metric table)")

    p = sub.add_parser("analyze", help="full scenario report (runs + oracle)")
    common(p)
    p.add_argument("--epsilon", help="arm the epsilon-violation oracle: "
                   "an exact bound on rho, as a fraction or decimal")
    p.add_argument("--secret", action="append", default=[],
                   metavar="TABLE:LINE", help="secret rows for the epsilon check")
    p.add_argument("--mode", choices=["integer-set", "paper-compat"],
                   default="integer-set")
    p.add_argument("--dot", help="write each scripted run as DOT next to this path")
    p.add_argument("--expect-violation", action="store_true",
                   help="exit 1 unless some run reaches Stop")

    p = sub.add_parser("dp-check", help="LDP/DP epsilon bounds for a mechanism")
    p.add_argument("--scenario", help="scenario JSON file (for named mechanisms)")
    p.add_argument("--mechanism", help="mechanism name within the scenario")
    p.add_argument("--mechanism-file",
                   help="standalone mechanism JSON (outputs + probs table)")
    p.add_argument("--adjacency", choices=["hamming", "rho"], default="hamming")
    p.add_argument("--mode", choices=["integer-set", "paper-compat"],
                   default="integer-set")

    p = sub.add_parser("attack", help="threshold report for attackers")
    common(p)
    p.add_argument("--attacker", action="append", required=True)
    p.add_argument("--built", action="store_true",
                   help="build from the profile instead of loading the transcript")
    p.add_argument("--dot", help="write each attack system as DOT to this "
                   "path, or next to it when there are several")

    p = sub.add_parser("strategy", help="response-blocking strategy report")
    common(p)
    p.add_argument("--attacker", required=True)
    p.add_argument("--baseline", help="baseline name (default from the scenario)")
    p.add_argument("--dot", help="write the post-strategy system (OFF edges "
                   "dashed) to this path")

    p = sub.add_parser("export-dot", help="DOT rendering of a named system")
    common(p)
    p.add_argument("--dltts", help="explicit transcript name")
    p.add_argument("--attacker", help="attack transcript name")
    p.add_argument("--run", help="scripted run name (built first)")
    p.add_argument("--dot", help="output path (default: stdout)")

    p = sub.add_parser("validate", help="validate scenario inputs and systems")
    common(p)
    p.add_argument("--dltts", help="check one named system only")

    return parser
