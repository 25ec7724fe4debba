"""Scenario files tie everything together: one JSON document referencing a
schema, CSV tables, mechanisms, attacker profiles, explicit transcripts, and
the analyses to run.  `run_scenario` produces a deterministic plain-text
report; identical inputs yield identical report bodies (the version header
is excluded from comparison)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from . import __version__
from .attack import (
    AttackDltts,
    AttackerProfile,
    apply_strategy,
    build_attack_dltts,
    load_attack_dltts,
    max_pr,
    threshold_report,
)
from .dltts import (
    Dltts,
    DlttsBuilder,
    Label,
    OracleVerdict,
    epsilon_equivalent_labels,
    natural_key,
    parse_dltts,
    reach_stop,
    validate,
)
from .metrics import IntervalMeasureMode, MetricError, d_bar, d_vector, hamming, rho
from .privacy import (
    Mechanism,
    min_eps_hamming_indist,
    min_eps_rho_indist,
    min_indist_epsilon,
    min_ldp_epsilon,
    min_dp_epsilon,
    HammingAdjacency,
    RhoAdjacency,
    parse_epsilon,
)
from .schema import (
    DataTable,
    SchemaBundle,
    load_schema,
    load_table,
    parse_columns,
    parse_pattern,
)
from .values import parse_cell


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    """A loaded scenario document: schema, tables, mechanisms, systems,
    attacker profiles, scripted runs and the analyses to perform."""

    name: str
    base_dir: Path
    schema: SchemaBundle
    tables: dict[str, DataTable]
    externals: list[str] = field(default_factory=list)
    mechanisms: dict[str, Mechanism] = field(default_factory=dict)
    dltts: dict[str, Dltts] = field(default_factory=dict)
    attack_dltts: dict[str, AttackDltts] = field(default_factory=dict)
    profiles: dict[str, AttackerProfile] = field(default_factory=dict)
    baseline: str | None = None
    declared_baseline: dict[str, Fraction] = field(default_factory=dict)
    runs: dict[str, dict] = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)

    def table(self, name: str) -> DataTable:
        try:
            return self.tables[name]
        except KeyError:
            raise ScenarioError(f"scenario references unknown table {name!r}")

    def mechanism(self, name: str) -> Mechanism:
        try:
            return self.mechanisms[name]
        except KeyError:
            raise ScenarioError(f"scenario references unknown mechanism {name!r}")

    def external_tables(self, names=None) -> list[DataTable]:
        return [self.table(n) for n in (names if names is not None else self.externals)]


def _parse_profile(name: str, doc: Mapping, schema: SchemaBundle) -> AttackerProfile:
    order = tuple(doc.get("attribute_order", ()))
    columns = {c.name: c for c in schema.columns}
    priors = {}
    for col_name, table in doc.get("priors", {}).items():
        if col_name not in columns:
            raise ScenarioError(f"profile {name}: unknown column {col_name!r}")
        col = columns[col_name]
        tree = schema.taxonomies.get(col.taxonomy_ref) if col.taxonomy_ref else None
        priors[col_name] = {
            parse_cell(k, col.cls, tree): Fraction(v) for k, v in table.items()
        }
    return AttackerProfile(
        name=name,
        attribute_order=order,
        priors=priors,
        objective=doc.get("objective", ""),
        empirical=bool(doc.get("empirical", False)),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc
    base = path.parent
    if "schema" not in doc:
        raise ScenarioError("scenario has no schema")
    schema = load_schema((base / doc["schema"]).read_text())

    tables: dict[str, DataTable] = {}
    for name, tdoc in doc.get("tables", {}).items():
        if "columns" in tdoc:
            columns = parse_columns(tdoc["columns"], schema.taxonomies)
        else:
            columns = schema.columns
        tables[name] = load_table(
            (base / tdoc["file"]).read_text(), columns, schema.taxonomies, name
        )

    mechanisms = {}
    for name, mdoc in doc.get("mechanisms", {}).items():
        mechanisms[name] = Mechanism.from_rows(
            name, mdoc["probs"], outputs=mdoc.get("outputs")
        )

    dltts = {
        name: parse_dltts((base / f).read_text(), name)
        for name, f in doc.get("dltts", {}).items()
    }
    attack_dltts = {
        name: load_attack_dltts((base / f).read_text(), name)
        for name, f in doc.get("attack_dltts", {}).items()
    }
    scenario = Scenario(
        name=doc.get("name", path.stem),
        base_dir=base,
        schema=schema,
        tables=tables,
        externals=list(doc.get("externals", [])),
        mechanisms=mechanisms,
        dltts=dltts,
        attack_dltts=attack_dltts,
        baseline=doc.get("baseline"),
        declared_baseline={
            k: Fraction(v) for k, v in doc.get("declared_baseline", {}).items()
        },
        runs=doc.get("runs", {}),
        analysis=doc.get("analysis", {}),
    )
    profiles = {}
    for name, pdoc in doc.get("profiles", {}).items():
        if isinstance(pdoc, str):
            pdoc = json.loads((base / pdoc).read_text())
        profiles[name] = _parse_profile(name, pdoc, schema)
    scenario.profiles = profiles
    for name in scenario.externals:
        scenario.table(name)
    return scenario


def build_run(
    scenario: Scenario,
    run_name: str,
    *,
    epsilon: Fraction | None = None,
    secret: list | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> tuple[Dltts, dict[str, OracleVerdict]]:
    """Drive a builder along a scripted query sequence: add each transition,
    saturate the new states, and let the oracle rule on every one of them."""
    try:
        run = scenario.runs[run_name]
    except KeyError:
        raise ScenarioError(f"scenario has no run {run_name!r}")
    externals = scenario.external_tables(run.get("externals"))
    builder = DlttsBuilder(
        policy=scenario.schema.policy,
        externals=externals,
        columns=scenario.schema.columns,
        taxonomies=scenario.schema.taxonomies,
    )
    verdicts: dict[str, OracleVerdict] = {}
    verdicts[builder.initial] = builder.oracle_step(
        builder.initial, secret_set=secret, epsilon=epsilon, mode=mode
    )
    for step in run.get("steps", []):
        branches = []
        for bdoc in step["branches"]:
            tuples = frozenset(
                parse_pattern(t, scenario.schema.columns, scenario.schema.taxonomies)
                for t in bdoc.get("learn", [])
            )
            label = Label(
                text=bdoc.get("text", ""),
                lines=frozenset(bdoc.get("lines", [])),
                tuples=tuples,
            )
            branches.append((bdoc["to"], Fraction(bdoc["prob"]), label))
        new_states = builder.add_transition(step["from"], step["action"], branches)
        for state in new_states:
            verdicts[state] = builder.oracle_step(
                state, secret_set=secret, epsilon=epsilon, mode=mode
            )
    return builder.build(), verdicts


@dataclass
class Report:
    """A deterministic report: its text lines and the values behind them."""

    scenario: str
    lines: list[str] = field(default_factory=list)
    values: dict[str, object] = field(default_factory=dict)
    # The systems the run sections built, by run name, for `--dot`.
    runs: dict[str, Dltts] = field(default_factory=dict, init=False)

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def put(self, key: str, value, line: str | None = None) -> None:
        self.values[key] = value
        if line is not None:
            self.lines.append(line)

    def header(self) -> str:
        return f"# privtrace {__version__}"

    def body(self) -> str:
        return "\n".join([f"report: {self.scenario}"] + self.lines) + "\n"

    def text(self) -> str:
        return self.header() + "\n" + self.body()


_MODES = {m.value: m for m in IntervalMeasureMode}


def parse_mode(name: str) -> IntervalMeasureMode:
    try:
        return _MODES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown mode {name!r}; expected one of {sorted(_MODES)}"
        )


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(d) for d in vec) + ")"


def _echo_inputs(scenario: Scenario, report: Report) -> None:
    report.add("## inputs")
    cols = ", ".join(
        f"{c.name}({c.cls.value},{c.group})" for c in scenario.schema.columns
    )
    report.add(f"schema: {cols}")
    for name in sorted(scenario.tables):
        t = scenario.tables[name]
        report.add(f"table {name}: {len(t.rows)} rows x {len(t.columns)} columns")
    for p in scenario.schema.policy.patterns:
        report.add(f"policy: {p}")
    if scenario.externals:
        report.add("externals: " + ", ".join(sorted(scenario.externals)))
    report.add()


def metric_section(
    scenario: Scenario, report: Report, table_name: str, pairs, modes
) -> bool:
    """Pairwise distances; returns False when some pair is uncomparable."""
    table = scenario.table(table_name)
    taxonomies = scenario.schema.taxonomies
    all_defined = True
    for a, b in pairs:
        ra, rb = table.row(a), table.row(b)
        dh = hamming(ra, rb)
        for mode_name in modes:
            mode = parse_mode(mode_name)
            report.add(f"## metric {table_name} {a} {b} ({mode.value})")
            prefix = f"metric/{table_name}/{a}/{b}/{mode.value}"
            try:
                vec = d_vector(ra, rb, None, mode, taxonomies=taxonomies)
            except MetricError:
                all_defined = False
                report.add("uncomparable pair")
                report.add()
                continue
            report.put(f"{prefix}/d_vector", vec, f"d_vector = {_fmt_vec(vec)}")
            total = d_bar(ra, rb, None, mode, taxonomies=taxonomies)
            report.put(f"{prefix}/d_bar", total, f"d_bar = {total}")
            r = rho([ra], [rb], mode, taxonomies=taxonomies)
            report.put(f"{prefix}/rho", r, f"rho = {r}")
            report.put(f"{prefix}/d_h", dh, f"d_h = {dh}")
            report.add()
    return all_defined


def resolve_secret(scenario: Scenario, refs: list[str]) -> list:
    """Resolve `table:line` references into row cell tuples."""
    out = []
    for ref in refs:
        table_name, _, line = ref.partition(":")
        if not line:
            raise ScenarioError(f"secret reference {ref!r} is not table:line")
        out.append(scenario.table(table_name).row(line).cells)
    return out


def _run_section(
    scenario: Scenario,
    report: Report,
    run_name: str,
    *,
    epsilon=None,
    secret=None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> None:
    dltts, verdicts = build_run(
        scenario, run_name, epsilon=epsilon, secret=secret, mode=mode
    )
    problems = validate(dltts)
    report.add(f"## run {run_name}")
    report.runs[run_name] = dltts
    report.put(f"run/{run_name}/valid", not problems)
    if problems:
        for p in problems:
            report.add(f"INVALID: {p}")
    for state in sorted(verdicts, key=natural_key):
        v = verdicts[state]
        if v is not OracleVerdict.CONTINUE:
            prob = dltts.state_probs.get(state)
            suffix = f" (state probability {prob})" if prob is not None else ""
            report.add(f"oracle at {state}: {v.value}{suffix}")
    reached, runs = reach_stop(dltts)
    report.put(f"run/{run_name}/stop_reached", reached)
    report.put(f"run/{run_name}/runs", runs)
    if reached:
        for r in runs:
            report.add(
                "stop reached: " + " -> ".join(r.states) + f"  probability {r.probability}"
            )
    else:
        report.add("stop not reached")
    report.add()


def attack_for(scenario: Scenario, name: str, built: bool = False) -> AttackDltts:
    if built:
        table_name = scenario.analysis.get("attack", {}).get("table")
        if table_name is None:
            table_name = next(iter(scenario.tables))
        profile = scenario.profiles.get(name)
        if profile is None:
            raise ScenarioError(f"no profile named {name!r}")
        return build_attack_dltts(scenario.table(table_name), profile)
    if name in scenario.attack_dltts:
        return scenario.attack_dltts[name]
    raise ScenarioError(f"no attack transcript named {name!r}")


def attack_section(
    scenario: Scenario, report: Report, name: str, built: bool = False
) -> tuple[AttackDltts, bool]:
    """Report the attack system `name`; returns it and whether any
    threshold was found."""
    attack = attack_for(scenario, name, built=built)
    report.add(f"## attack {name}" + (" (built)" if built else ""))
    thresholds = threshold_report(attack)
    for (value, cond), pr in sorted(thresholds.items()):
        report.put(
            f"attack/{name}/threshold/{value}|{cond}",
            pr,
            f"Pr(response={value} | {cond}) = {pr}",
        )
    lines = sorted({line for _, line in attack.singleton_nodes()}, key=natural_key)
    for line in lines:
        computed = max_pr(attack, line)
        extra = ""
        declared = scenario.declared_baseline.get(line)
        if name == scenario.baseline and declared is not None:
            extra = f" (declared {declared})"
            if declared != computed:
                extra += (
                    "  NOTE: computed value differs from the declared baseline;"
                    " the transcript is preserved verbatim"
                )
        report.put(f"attack/{name}/max_pr/{line}", computed)
        report.add(f"Max_pr({line}) = {computed}{extra}")
    report.add()
    return attack, bool(thresholds)


def strategy_section(
    scenario: Scenario, report: Report, attacker: str, baseline_name: str
) -> AttackDltts:
    """Report the blocking strategy against each baseline variant; returns
    the first variant's updated system."""
    attack = attack_for(scenario, attacker)
    baseline = attack_for(scenario, baseline_name)
    variants: list[tuple[str, dict[str, Fraction] | None]] = []
    if scenario.declared_baseline:
        variants.append(("declared", scenario.declared_baseline))
    variants.append(("computed", None))
    drawn = None
    for variant, baseline_max in variants:
        report.add(f"## strategy {attacker} vs {baseline_name} ({variant} baseline)")
        updated, decisions = apply_strategy(
            attack, baseline, baseline_max=baseline_max
        )
        if drawn is None:
            drawn = updated
        off = []
        for d in sorted(decisions, key=lambda d: natural_key(d.node)):
            if d.switched_off:
                verdict = "switch OFF"
                off.append((d.node, d.line))
            else:
                verdict = "stays ON"
            cmp_str = ">" if d.probability > d.baseline else "<="
            report.add(
                f"{d.node} response({d.line}): Pr = {d.probability} "
                f"{cmp_str} baseline {d.baseline} -> {verdict}"
            )
        report.put(f"strategy/{attacker}/{baseline_name}/{variant}/off", off)
        report.add(
            "switched off: "
            + (", ".join(f"{n}:{l}" for n, l in off) if off else "none")
        )
        if off:
            report.add(
                "refused: "
                + ", ".join(f"response({l}) at {n} answers 'refused'" for n, l in off)
            )
        report.add()
    return drawn


def dp_section(
    scenario: Scenario | None,
    report: Report,
    name: str,
    m: Mechanism,
    adjacency: str,
    mode_name: str,
) -> bool:
    """LDP and DP epsilon bounds with witnesses; returns False when either
    is unbounded.  Any adjacency other than "hamming" is rho under
    `mode_name`, over the scenario's taxonomies (none without a scenario)."""
    report.add(f"## dp-check {name}")
    ldp = min_ldp_epsilon(m)
    report.put(f"dp/{name}/ldp", ldp, f"min LDP epsilon = {ldp}")
    report.add(f"  witness: {ldp.witness_str()}")
    if adjacency == "hamming":
        adj = HammingAdjacency()
    else:
        taxonomies = scenario.schema.taxonomies if scenario else {}
        adj = RhoAdjacency(parse_mode(mode_name), taxonomies=taxonomies)
    dp = min_dp_epsilon(m, adj)
    report.put(f"dp/{name}/dp/{adjacency}", dp, f"min DP epsilon ({adjacency}) = {dp}")
    report.add(f"  witness: {dp.witness_str()}")
    return not (ldp.unbounded or dp.unbounded)


def run_scenario(
    scenario: Scenario,
    *,
    epsilon=None,
    secret: list[str] | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> Report:
    """Execute every analysis requested by the scenario document.

    `epsilon` plus `secret` (a list of table:line references) arm the
    oracle's epsilon-violation check on every scripted run.
    """
    secret_rows = resolve_secret(scenario, secret) if secret else None
    report = Report(scenario.name)
    _echo_inputs(scenario, report)
    analysis = scenario.analysis

    if "metric" in analysis:
        spec = analysis["metric"]
        metric_section(
            scenario,
            report,
            spec["table"],
            [tuple(p) for p in spec.get("pairs", [])],
            spec.get("modes", ["integer-set"]),
        )

    for entry in analysis.get("indist", []):
        m = scenario.mechanism(entry["mechanism"])
        a, b = entry["pair"]
        res = min_indist_epsilon(m, a, b, entry["alpha"])
        report.add(f"## indistinguishability {entry['mechanism']} {a} {b}")
        report.put(
            f"indist/{entry['mechanism']}/{a}/{b}",
            res,
            f"min epsilon wrt {entry['alpha']} = {res}",
        )
        report.add()

    for entry in analysis.get("scaled_indist", []):
        m = scenario.mechanism(entry["mechanism"])
        a, b = entry["pair"]
        table = scenario.table(entry["table"])
        tuples = (table.row(a), table.row(b))
        alpha = entry["alpha"]
        report.add(f"## scaled indistinguishability {entry['mechanism']} {a} {b}")
        for mode_name in entry.get("modes", ["integer-set"]):
            mode = parse_mode(mode_name)
            res = min_eps_rho_indist(
                m, a, b, alpha, mode,
                tuples=tuples, taxonomies=scenario.schema.taxonomies,
            )
            report.put(
                f"scaled_indist/{entry['mechanism']}/{a}/{b}/rho/{mode.value}",
                res,
                f"rho-scaled min epsilon ({mode.value}) = {res}",
            )
        if entry.get("hamming"):
            res = min_eps_hamming_indist(m, a, b, alpha, tuples=tuples)
            report.put(
                f"scaled_indist/{entry['mechanism']}/{a}/{b}/hamming",
                res,
                f"hamming-scaled min epsilon = {res}",
            )
        report.add()

    for run_name in analysis.get("runs", []):
        _run_section(
            scenario, report, run_name,
            epsilon=epsilon, secret=secret_rows, mode=mode,
        )

    for entry in analysis.get("label_equivalence", []):
        dltts, _ = build_run(scenario, entry["run"])
        m = scenario.mechanism(entry["mechanism"])
        eps = parse_epsilon(entry["epsilon"])
        classes = epsilon_equivalent_labels(
            dltts, entry["state"], m, eps, alpha=entry.get("alpha")
        )
        report.add(f"## label equivalence {entry['run']} at {entry['state']}")
        rendered = sorted(
            "{" + ", ".join(sorted(str(l) for l in cls)) + "}" for cls in classes
        )
        report.put(
            f"label_equivalence/{entry['run']}/{entry['state']}",
            classes,
            f"epsilon {entry['epsilon']}: {len(classes)} class(es): "
            + "; ".join(rendered),
        )
        report.add()

    if "attack" in analysis:
        for name in analysis["attack"].get("attackers", []):
            attack_section(scenario, report, name)

    for entry in analysis.get("strategy", []):
        strategy_section(
            scenario, report, entry["attacker"],
            entry.get("baseline", scenario.baseline),
        )

    for entry in analysis.get("dp_check", []):
        name = entry["mechanism"]
        dp_section(
            scenario, report, name, scenario.mechanism(name),
            entry.get("adjacency", "hamming"), entry.get("mode", "integer-set"),
        )
        report.add()

    return report
