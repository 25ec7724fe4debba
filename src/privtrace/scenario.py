"""Scenario files tie everything together: one JSON document referencing a
schema, CSV tables, mechanisms, attacker profiles, explicit transcripts, and
the analyses to run.  `run_scenario` produces a deterministic plain-text
report; identical inputs yield identical report bodies (the version header
is excluded from comparison)."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .lts import Dltts, Label, natural_key, parse_dltts, reach_stop, validate
from .report import Report, ScenarioError, dp_section, parse_mode
from .schema import (
    COLUMN,
    DataTable,
    SchemaBundle,
    load_schema,
    load_table,
    parse_columns,
    parse_pattern,
)
from .values import (
    PAIR,
    IntervalMeasureMode,
    Names,
    Required,
    parse_cell,
    parse_fraction,
    shaped,
)

# The knowledge, metric, attack and mechanism layers load only when a
# section needs them: each function below that calls one imports it, so
# `analyze` on a scenario with attack sections only imports no `dltts`,
# and one with unarmed scripted runs only imports no `metrics`, `attack`
# or `privacy`.
if TYPE_CHECKING:
    from .attack import AttackDltts, AttackerProfile
    from .dltts import OracleVerdict
    from .privacy import Mechanism


class Scenario:
    """A loaded scenario document: schema, tables, mechanisms, systems,
    attacker profiles, scripted runs and the analyses to perform.  Each
    collection left out starts empty."""

    def __init__(
        self,
        name: str,
        base_dir: Path,
        schema: SchemaBundle,
        tables: dict[str, DataTable],
        externals: list[str] | None = None,
        mechanisms: dict[str, Mechanism] | None = None,
        dltts: dict[str, Dltts] | None = None,
        attack_dltts: dict[str, AttackDltts] | None = None,
        profiles: dict[str, AttackerProfile] | None = None,
        baseline: str | None = None,
        declared_baseline: dict[str, Fraction] | None = None,
        runs: dict[str, dict] | None = None,
        analysis: dict | None = None,
    ) -> None:
        self.name = name
        self.base_dir = base_dir
        self.schema = schema
        self.tables = tables
        self.externals = [] if externals is None else externals
        self.mechanisms = {} if mechanisms is None else mechanisms
        self.dltts = {} if dltts is None else dltts
        self.attack_dltts = {} if attack_dltts is None else attack_dltts
        self.profiles = {} if profiles is None else profiles
        self.baseline = baseline
        self.declared_baseline = {} if declared_baseline is None else declared_baseline
        self.runs = {} if runs is None else runs
        self.analysis = {} if analysis is None else analysis

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

    def attack_table(self) -> DataTable:
        """The table attack trees are built from and checked against: the
        analysis's `attack.table`, else the first table."""
        name = self.analysis.get("attack", {}).get("table")
        return self.table(next(iter(self.tables), None) if name is None else name)


# The shape `values.shaped` checks a scenario document against.  Each
# mechanism is checked against `privacy.MECHANISM` and each profile, in
# the document or in a file it names, against PROFILE as it loads; a
# probability, prior or declared baseline is an exact number that
# `parse_fraction` reads.  `metric` and `attack` are objects, every other
# analysis key an array of objects, and a null `alpha` of a
# `label_equivalence` entry means "infer the common output".
SCENARIO = {
    "name": str,
    "schema": Required(str),
    "tables": Names({"file": Required(str), "columns": [COLUMN]}),
    "externals": [str],
    "mechanisms": Names(object),
    "dltts": Names(str),
    "attack_dltts": Names(str),
    "profiles": Names((dict, str)),
    "baseline": (str, type(None)),
    "declared_baseline": Names(object),
    "runs": Names({
        "externals": [str],
        "steps": [{
            "from": Required(str),
            "action": Required(str),
            "branches": Required([{"to": Required(str), "prob": Required(object),
                                   "text": str, "lines": [str], "learn": [str]}]),
        }],
    }),
    "analysis": {
        "metric": {"table": Required(str), "pairs": [PAIR], "modes": [str]},
        "attack": {"table": str, "attackers": [str]},
        "runs": [str],
        "indist": [{"mechanism": Required(str), "pair": Required(PAIR),
                    "alpha": Required(str)}],
        "scaled_indist": [{"mechanism": Required(str), "pair": Required(PAIR),
                           "alpha": Required(str), "table": Required(str),
                           "modes": [str], "hamming": bool}],
        "label_equivalence": [{"run": Required(str), "state": Required(str),
                               "mechanism": Required(str),
                               "alpha": (str, type(None)),
                               "epsilon": Required(str)}],
        "strategy": [{"attacker": Required(str), "baseline": str}],
        "dp_check": [{"mechanism": Required(str), "adjacency": str, "mode": str}],
    },
}

PROFILE = {"attribute_order": [str], "priors": Names(Names(object)),
           "objective": str, "empirical": bool}


def _read(where: str, parse, *args):
    """`parse(*args)`, its ValueError raised as a ScenarioError naming
    `where`."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_profile(name: str, doc, schema: SchemaBundle) -> AttackerProfile:
    from .attack import AttackerProfile

    shaped(doc, PROFILE, f"profile {name!r}")
    columns = {c.name: c for c in schema.columns}
    priors = {}
    for col_name, table in doc.get("priors", {}).items():
        if col_name not in columns:
            raise ScenarioError(f"profile {name}: unknown column {col_name!r}")
        col = columns[col_name]
        tree = schema.taxonomies.get(col.taxonomy_ref) if col.taxonomy_ref else None
        where = f"profile {name!r} priors.{col_name}"
        priors[col_name] = {
            _read(where, parse_cell, k, col.cls, tree):
                _read(f"{where}.{k}", parse_fraction, v)
            for k, v in table.items()
        }
    return AttackerProfile(
        name=name,
        attribute_order=tuple(doc.get("attribute_order", ())),
        priors=priors,
        objective=doc.get("objective", ""),
        empirical=doc.get("empirical", False),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario document and everything it references.  A document
    not of the shape SCENARIO raises ShapeError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc
    shaped(doc, SCENARIO, "scenario")
    base = path.parent
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
        from .privacy import Mechanism

        mechanisms[name] = Mechanism.from_doc(name, mdoc)

    dltts = {
        name: parse_dltts((base / f).read_text(), name)
        for name, f in doc.get("dltts", {}).items()
    }
    attack_dltts = {}
    for name, f in doc.get("attack_dltts", {}).items():
        from .attack import load_attack_dltts

        attack_dltts[name] = load_attack_dltts((base / f).read_text(), name)
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
            line: _read(f"scenario declared_baseline.{line}", parse_fraction, v)
            for line, v in doc.get("declared_baseline", {}).items()
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
    from .dltts import DlttsBuilder

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
        secrets=secret,
        epsilon=epsilon,
        mode=mode,
    )
    verdicts: dict[str, OracleVerdict] = {}
    verdicts[builder.initial] = builder.oracle_step(builder.initial)
    patterns = {}  # each distinct learn string, parsed once per run
    for i, step in enumerate(run.get("steps", [])):
        branches = []
        for j, bdoc in enumerate(step["branches"]):
            for t in bdoc.get("learn", []):
                if t not in patterns:
                    patterns[t] = parse_pattern(
                        t, scenario.schema.columns, scenario.schema.taxonomies)
            tuples = frozenset(patterns[t] for t in bdoc.get("learn", []))
            label = Label(
                text=bdoc.get("text", ""),
                lines=frozenset(bdoc.get("lines", [])),
                tuples=tuples,
            )
            prob = _read(f"scenario runs.{run_name}.steps[{i}].branches[{j}].prob",
                         parse_fraction, bdoc["prob"])
            branches.append((bdoc["to"], prob, label))
        new_states = builder.add_transition(step["from"], step["action"], branches)
        for state in new_states:
            verdicts[state] = builder.oracle_step(state)
    return builder.build(), verdicts


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
    from .metrics import MetricError, d_vector, hamming

    table = scenario.table(table_name)
    taxonomies = scenario.schema.taxonomies
    normalizer = table.normalizers
    all_defined = True
    for a, b in pairs:
        ra, rb = table.row(a), table.row(b)
        dh = hamming(ra, rb)
        for mode_name in modes:
            mode = parse_mode(mode_name)
            report.add(f"## metric {table_name} {a} {b} ({mode.value})")
            prefix = f"metric/{table_name}/{a}/{b}/{mode.value}"
            try:
                vec = d_vector(
                    ra, rb, None, mode, taxonomies=taxonomies, normalizer=normalizer
                )
            except MetricError:
                all_defined = False
                report.add("uncomparable pair")
                report.add()
                continue
            report.put(f"{prefix}/d_vector", vec, f"d_vector = {_fmt_vec(vec)}")
            # rho of two single rows is their d_bar, the sum of d_vector
            total = sum(vec, Fraction(0))
            report.put(f"{prefix}/d_bar", total, f"d_bar = {total}")
            report.put(f"{prefix}/rho", total, f"rho = {total}")
            report.put(f"{prefix}/d_h", dh, f"d_h = {dh}")
            report.add()
    return all_defined


def resolve_secret(scenario: Scenario, refs: list[str]) -> list:
    """Resolve `table:line` references into copies of their tables holding
    just those rows, so that each secret keeps its table's normalizers."""
    rows: dict[str, dict] = {}
    for ref in refs:
        table_name, _, line = ref.partition(":")
        if not line:
            raise ScenarioError(f"secret reference {ref!r} is not table:line")
        rows.setdefault(table_name, {})[line] = scenario.table(table_name).row(line)
    return [scenario.table(name).replace(rows=tuple(by_line.values()))
            for name, by_line in rows.items()]


def _run_section(
    scenario: Scenario,
    report: Report,
    run_name: str,
    *,
    epsilon=None,
    secret=None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
) -> None:
    from .dltts import OracleVerdict

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
    from .attack import build_attack_dltts

    if built:
        profile = scenario.profiles.get(name)
        if profile is None:
            raise ScenarioError(f"no profile named {name!r}")
        return build_attack_dltts(scenario.attack_table(), profile)
    if name in scenario.attack_dltts:
        return scenario.attack_dltts[name]
    raise ScenarioError(f"no attack transcript named {name!r}")


def attack_section(
    scenario: Scenario, report: Report, name: str, built: bool = False
) -> tuple[AttackDltts, bool]:
    """Report the attack system `name`; returns it and whether any
    threshold was found."""
    from .attack import max_pr, threshold_report

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
    scenario: Scenario, report: Report, attacker: str, baseline_name: str | None
) -> AttackDltts:
    """Report the blocking strategy against each variant of the baseline
    `baseline_name`, by default the scenario's; returns the first
    variant's updated system."""
    from .attack import apply_strategy

    if baseline_name is None:
        baseline_name = scenario.baseline
    if baseline_name is None:
        raise ScenarioError("no baseline given and the scenario names none")
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
        from .privacy import min_indist_epsilon

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
        from .privacy import min_eps_hamming_indist, min_eps_rho_indist

        m = scenario.mechanism(entry["mechanism"])
        a, b = entry["pair"]
        table = scenario.table(entry["table"])
        tuples = (table.row(a), table.row(b))
        alpha = entry["alpha"]
        report.add(f"## scaled indistinguishability {entry['mechanism']} {a} {b}")
        for mode_name in entry.get("modes", ["integer-set"]):
            rho_mode = parse_mode(mode_name)
            res = min_eps_rho_indist(
                m, a, b, alpha, rho_mode,
                tuples=tuples, taxonomies=scenario.schema.taxonomies,
                normalizer=table.normalizers,
            )
            report.put(
                f"scaled_indist/{entry['mechanism']}/{a}/{b}/rho/{rho_mode.value}",
                res,
                f"rho-scaled min epsilon ({rho_mode.value}) = {res}",
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
        from .dltts import epsilon_equivalent_labels
        from .privacy import parse_epsilon

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
        strategy_section(scenario, report, entry["attacker"], entry.get("baseline"))

    for entry in analysis.get("dp_check", []):
        name = entry["mechanism"]
        dp_section(
            scenario, report, name, scenario.mechanism(name),
            entry.get("adjacency", "hamming"), entry.get("mode", "integer-set"),
        )
        report.add()

    return report
