"""Scenario files tie everything together: one JSON document referencing a
schema, CSV tables, mechanisms, attacker profiles, explicit transcripts, and
the analyses to run.  `run_scenario` produces a deterministic plain-text
report; identical inputs yield identical report bodies (the version header
is excluded from comparison)."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .lts import Dltts, Label, natural_key
from .report import Report, dp_section, parse_mode
from .schema import (
    COLUMN,
    DataTable,
    SchemaBundle,
    load_schema,
    load_table,
    parse_columns,
    parse_pattern,
)
from .records import (
    PAIR,
    InputError,
    Names,
    Record,
    Required,
    located,
    parse_fraction,
    read_json,
    read_text,
    shaped,
)

# The knowledge, metric, attack, profile and mechanism layers, the
# transcript reader and the sections in `sections` load only when a section
# needs them: each function below that calls one imports it, so `analyze`
# on a scenario with attack transcripts only imports no `dltts`, `profiles`
# or `sections`, and one with scripted runs only imports no `attack`,
# `transcript`, `privacy` or `sections`, nor `metrics` unless its oracle is
# armed.
if TYPE_CHECKING:
    from .attack import AttackDltts
    from .dltts import Oracle, OracleVerdict
    from .privacy import Mechanism
    from .profiles import AttackerProfile


class Scenario(Record):
    """A loaded scenario document: schema, tables, mechanisms, systems,
    attacker profiles, scripted runs and the analyses to perform."""

    name: str
    schema: SchemaBundle
    tables: dict[str, DataTable]
    externals: list[str]
    mechanisms: dict[str, Mechanism]
    dltts: dict[str, Dltts]
    attack_dltts: dict[str, AttackDltts]
    profiles: dict[str, AttackerProfile]
    baseline: str | None
    declared_baseline: dict[str, Fraction]
    runs: dict[str, dict]
    analysis: dict

    def table(self, name: str) -> DataTable:
        try:
            return self.tables[name]
        except KeyError:
            raise InputError(f"scenario references unknown table {name!r}")

    def mechanism(self, name: str) -> Mechanism:
        try:
            return self.mechanisms[name]
        except KeyError:
            raise InputError(f"scenario references unknown mechanism {name!r}")

    def external_tables(self, names=None) -> list[DataTable]:
        return [self.table(n) for n in (names if names is not None else self.externals)]

    def attack_table(self) -> DataTable:
        """The table attack trees are built from and checked against: the
        analysis's `attack.table`, else the first table."""
        name = self.analysis.get("attack", {}).get("table")
        return self.table(next(iter(self.tables), None) if name is None else name)


# The shape `records.shaped` checks a scenario document against.  Each
# mechanism is checked against `privacy.MECHANISM` and each profile, in
# the document or in a file it names, against `profiles.PROFILE` as it
# loads; a probability, prior or declared baseline is an exact number
# that `parse_fraction` reads.  `metric` and `attack` are objects, every
# other analysis key an array of objects, and a null `alpha` of a
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


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario document and everything it references.  A document
    not of the shape SCENARIO raises InputError."""
    path = Path(path)
    doc = shaped(read_json(read_text(path), f"scenario {path}"), SCENARIO, "scenario")
    base = path.parent
    schema = load_schema(read_text(base / doc["schema"]))

    tables: dict[str, DataTable] = {}
    for name, tdoc in doc.get("tables", {}).items():
        if "columns" in tdoc:
            columns = parse_columns(tdoc["columns"], schema.taxonomies)
        else:
            columns = schema.columns
        tables[name] = load_table(read_text(base / tdoc["file"]), columns, name)

    mechanisms = {}
    for name, mdoc in doc.get("mechanisms", {}).items():
        from .privacy import Mechanism

        mechanisms[name] = Mechanism.from_doc(name, mdoc)

    dltts = {}
    for name, f in doc.get("dltts", {}).items():
        from .transcript import parse_dltts

        dltts[name] = parse_dltts(read_text(base / f), name)
    attack_dltts = {}
    for name, f in doc.get("attack_dltts", {}).items():
        from .attack import load_attack_dltts

        attack_dltts[name] = load_attack_dltts(read_text(base / f), name)
    declared_baseline = {
        line: located(f"scenario declared_baseline.{line}", parse_fraction, v)
        for line, v in doc.get("declared_baseline", {}).items()
    }
    profiles = {}
    for name, pdoc in doc.get("profiles", {}).items():
        if isinstance(pdoc, str):
            pdoc = read_json(read_text(base / pdoc), f"profile {name} file {pdoc}")
        from .profiles import parse_profile

        profiles[name] = parse_profile(name, pdoc, schema)
    scenario = Scenario(
        name=doc.get("name", path.stem),
        schema=schema,
        tables=tables,
        externals=list(doc.get("externals", [])),
        mechanisms=mechanisms,
        dltts=dltts,
        attack_dltts=attack_dltts,
        profiles=profiles,
        baseline=doc.get("baseline"),
        declared_baseline=declared_baseline,
        runs=doc.get("runs", {}),
        analysis=doc.get("analysis", {}),
    )
    for name in scenario.externals:
        scenario.table(name)
    return scenario


def build_run(scenario: Scenario, run_name: str, oracle: Oracle | None = None,
              ) -> tuple[Dltts, dict[str, OracleVerdict]]:
    """Drive a builder along a scripted query sequence: it saturates each
    new state and the oracle (armed by `oracle`) rules on each as it is
    made.  A step the builder refuses raises an InputError naming it."""
    from .dltts import DlttsBuilder

    try:
        run = scenario.runs[run_name]
    except KeyError:
        raise InputError(f"scenario has no run {run_name!r}")
    schema = scenario.schema
    builder = DlttsBuilder(policy=schema.policy, columns=schema.columns,
                           externals=scenario.external_tables(run.get("externals")),
                           oracle=oracle)
    patterns = {}  # each distinct learn string, parsed once per run
    for i, step in enumerate(run.get("steps", [])):
        branches = []
        for j, bdoc in enumerate(step["branches"]):
            where = f"scenario runs.{run_name}.steps[{i}].branches[{j}]"
            for k, t in enumerate(bdoc.get("learn", [])):
                if t not in patterns:
                    patterns[t] = located(f"{where}.learn[{k}]", parse_pattern, t,
                                          schema.columns)
            label = Label(bdoc.get("text", ""), frozenset(bdoc.get("lines", [])),
                          frozenset(patterns[t] for t in bdoc.get("learn", [])), "db")
            prob = located(f"{where}.prob", parse_fraction, bdoc["prob"])
            branches.append((bdoc["to"], prob, label))
        located(f"scenario runs.{run_name}.steps[{i}]", builder.add_transition,
                step["from"], step["action"], branches)
    return builder.build(), builder.verdicts


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


def _run_section(scenario: Scenario, report: Report, run_name: str,
                 oracle: Oracle | None) -> None:
    """Build the run `run_name`, its oracle armed by `oracle` (see
    `build_run`), and report its verdicts and runs to Stop."""
    from .dltts import OracleVerdict, reach_stop

    dltts, verdicts = build_run(scenario, run_name, oracle)
    report.add(f"## run {run_name}")
    report.runs[run_name] = dltts
    reached, runs = reach_stop(dltts)
    # a violating state's one run ends in its delta, of probability 1
    at_state = {r.states[-2]: r.probability for r in runs}
    for state in sorted(verdicts, key=natural_key):
        v = verdicts[state]
        if v is not OracleVerdict.CONTINUE:
            report.add(f"oracle at {state}: {v.value} "
                       f"(state probability {at_state[state]})")
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
        from .profiles import build_attack_dltts

        profile = scenario.profiles.get(name)
        if profile is None:
            raise InputError(f"no profile named {name!r}")
        return build_attack_dltts(scenario.attack_table(), profile)
    if name in scenario.attack_dltts:
        return scenario.attack_dltts[name]
    raise InputError(f"no attack transcript named {name!r}")


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
        report.put(f"attack/{name}/threshold/{value}|{cond}", pr,
                   f"Pr(response={value} | {cond}) = {pr}")
    lines = sorted({line for _, line in attack.singleton_nodes()}, key=natural_key)
    for line in lines:
        computed = max_pr(attack, line)
        extra = ""
        declared = scenario.declared_baseline.get(line)
        if name == scenario.baseline and declared is not None:
            extra = f" (declared {declared})"
            if declared != computed:
                extra += ("  NOTE: computed value differs from the declared baseline;"
                          " the transcript is preserved verbatim")
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
        raise InputError("no baseline given and the scenario names none")
    attack = attack_for(scenario, attacker)
    baseline = attack_for(scenario, baseline_name)
    variants: list[tuple[str, dict[str, Fraction] | None]] = []
    if scenario.declared_baseline:
        variants.append(("declared", scenario.declared_baseline))
    variants.append(("computed", None))
    drawn = None
    for variant, baseline_max in variants:
        report.add(f"## strategy {attacker} vs {baseline_name} ({variant} baseline)")
        updated, decisions = apply_strategy(attack, baseline, baseline_max=baseline_max)
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
        report.add("switched off: "
                   + (", ".join(f"{n}:{l}" for n, l in off) if off else "none"))
        if off:
            report.add(
                "refused: "
                + ", ".join(f"response({l}) at {n} answers 'refused'" for n, l in off)
            )
        report.add()
    return drawn


def run_scenario(scenario: Scenario, *, oracle: Oracle | None = None) -> Report:
    """Execute every analysis requested by the scenario document; `oracle`
    arms the epsilon-violation check on every scripted run."""
    report = Report(scenario.name)
    _echo_inputs(scenario, report)
    analysis = scenario.analysis

    if "metric" in analysis:
        from .sections import metric_section, parse_modes

        spec = analysis["metric"]
        metric_section(scenario, report, spec["table"], [tuple(p) for p in spec.get("pairs", [])],
                       parse_modes("scenario analysis.metric", spec))

    for entry in analysis.get("indist", []):
        from .sections import indist_section

        indist_section(scenario, report, entry)

    for i, entry in enumerate(analysis.get("scaled_indist", [])):
        from .sections import scaled_indist_section

        scaled_indist_section(scenario, report, entry, f"scenario analysis.scaled_indist[{i}]")

    for run_name in analysis.get("runs", []):
        _run_section(scenario, report, run_name, oracle)

    for entry in analysis.get("label_equivalence", []):
        from .sections import label_equivalence_section

        label_equivalence_section(scenario, report, entry, oracle)

    if "attack" in analysis:
        for name in analysis["attack"].get("attackers", []):
            attack_section(scenario, report, name)

    for entry in analysis.get("strategy", []):
        strategy_section(scenario, report, entry["attacker"], entry.get("baseline"))

    for i, entry in enumerate(analysis.get("dp_check", [])):
        name, where = entry["mechanism"], f"scenario analysis.dp_check[{i}]"
        adjacency = entry.get("adjacency", "hamming")
        mode_name = entry.get("mode", "integer-set")
        if adjacency not in ("hamming", "rho"):  # the choices of dp-check --adjacency
            raise InputError(f"{where}: unknown adjacency {adjacency!r}; expected one "
                             "of ['hamming', 'rho']")
        located(where, parse_mode, mode_name)  # read under rho only, checked always
        dp_section(report, name, scenario.mechanism(name), adjacency, mode_name)
        report.add()

    return report
