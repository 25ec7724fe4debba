"""Command-line front end.

Exit codes: 0 success; 1 when the requested finding is absent (uncomparable
pair, unbounded epsilon, empty attack report, validation violations found);
2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from typing import TYPE_CHECKING

from .records import InputError, parse_fraction, read_json, read_text

if TYPE_CHECKING:
    from .scenario import Scenario

# Every refusal of an input, a lookup an input can reach included, raises
# InputError; any other exception, a KeyError or a bare ValueError, is a bug.
INPUT_ERRORS = (OSError, InputError)


def _build_parser() -> argparse.ArgumentParser:
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


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:  # a lone surrogate, from a JSON escape
        raise InputError(str(exc)) from None


def _write_dot(base: str, dltts, name: str = "", names=(), **options) -> None:
    """Draw `dltts` as DOT at `base`, or at `stem-name.suffix` beside it when
    `names` holds several systems; a report loads `dotexport` only here."""
    from .dotexport import export_dot

    text = export_dot(dltts, **options)
    path = Path(base)
    try:
        if len(names) > 1:
            path = path.with_name(f"{path.stem}-{name}{path.suffix}")
        path.write_text(text)
    except ValueError as exc:  # a name pathlib refuses, or text it cannot encode
        raise InputError(str(exc)) from None


def _cmd_metric(scenario: Scenario, args) -> int:
    from .sections import Report, metric_section

    table = args.table or scenario.analysis.get("metric", {}).get("table")
    if table is None:
        raise InputError("no table given and the scenario names none")
    report = Report(scenario.name)
    ok = metric_section(scenario, report, table, [tuple(args.pair)], [args.mode])
    _emit(report.text())
    return 0 if ok else 1


def _oracle_bound(text: str) -> Fraction:
    """The oracle's bound on rho, a distance: an exact non-negative
    fraction or decimal, so a state at exactly the typed bound is caught."""
    try:
        bound = parse_fraction(text.strip().replace(" ", ""))
    except InputError as exc:
        raise InputError(f"--epsilon {text!r}: {exc}; the oracle bounds rho, a "
                         "distance, not an ln(...) epsilon") from None
    if bound < 0:
        raise InputError(f"--epsilon {text!r} is negative")
    return bound


def _cmd_analyze(scenario: Scenario, args) -> int:
    from .scenario import parse_mode, run_scenario

    epsilon = _oracle_bound(args.epsilon) if args.epsilon else None
    if epsilon is not None and not args.secret:
        raise InputError("--epsilon needs at least one --secret TABLE:LINE")
    report = run_scenario(
        scenario, epsilon=epsilon, secret=args.secret or None,
        mode=parse_mode(args.mode),
    )
    _emit(report.text())
    if args.dot:
        runs = scenario.analysis.get("runs", [])
        for name in runs:
            _write_dot(args.dot, report.runs[name], name, runs)
    if args.expect_violation:
        reached = any(
            report.values.get(f"run/{name}/stop_reached")
            for name in scenario.analysis.get("runs", [])
        )
        return 0 if reached else 1
    return 0


def _cmd_dp_check(scenario: Scenario | None, args) -> int:
    from .privacy import Mechanism
    from .report import Report, dp_section

    if args.mechanism_file:
        path = Path(args.mechanism_file)
        doc = read_json(read_text(path), f"mechanism file {path}")
        m = Mechanism.from_doc(path.stem, doc)
        name = m.name
    elif scenario is not None and args.mechanism:
        name = args.mechanism
        m = scenario.mechanism(name)
    else:
        raise InputError("dp-check needs --mechanism-file, or --scenario "
                         "plus --mechanism")
    report = Report(scenario.name if scenario else name)
    bounded = dp_section(scenario, report, name, m, args.adjacency, args.mode)
    _emit(report.text())
    return 0 if bounded else 1


def _cmd_attack(scenario: Scenario, args) -> int:
    from .scenario import Report, attack_section

    report = Report(scenario.name)
    found = False
    for name in args.attacker:
        attack, has_thresholds = attack_section(
            scenario, report, name, built=args.built
        )
        found = has_thresholds or found
        if args.built:
            from .profiles import attack_problems

            for prob in attack_problems(attack, scenario.attack_table()):
                report.add(f"INVALID: {prob}")
        if args.dot:
            _write_dot(args.dot, attack.dltts, name, args.attacker)
    _emit(report.text())
    return 0 if found else 1


def _cmd_strategy(scenario: Scenario, args) -> int:
    from .scenario import Report, strategy_section

    report = Report(scenario.name)
    updated = strategy_section(scenario, report, args.attacker, args.baseline)
    _emit(report.text())
    if args.dot:
        off_edges = frozenset(
            (e.node, e.target) for e in updated.responses
            if not updated.switched_on(e.node, e.line)
        )
        _write_dot(args.dot, updated.dltts, off_edges=off_edges)
    return 0


def _cmd_export_dot(scenario: Scenario, args) -> int:
    from .dotexport import export_dot
    from .scenario import attack_for, build_run

    if args.dltts:
        dltts = scenario.dltts.get(args.dltts)
        if dltts is None:
            raise InputError(f"no explicit system named {args.dltts!r}")
    elif args.attacker:
        dltts = attack_for(scenario, args.attacker).dltts
    elif args.run:
        dltts, _ = build_run(scenario, args.run)
    else:
        raise InputError("export-dot needs --dltts, --attacker, or --run")
    if args.dot:
        _write_dot(args.dot, dltts)
    else:
        _emit(export_dot(dltts))
    return 0


def _cmd_validate(scenario: Scenario, args) -> int:
    from .dltts import validate
    from .profiles import attack_problems
    from .scenario import Report, build_run

    report = Report(scenario.name)
    problems: list[str] = []
    names = [args.dltts] if args.dltts else sorted(scenario.dltts)
    for name in names:
        dltts = scenario.dltts.get(name)
        if dltts is None:
            raise InputError(f"no explicit system named {name!r}")
        for p in validate(dltts):
            problems.append(f"{name}: {p}")
    if not args.dltts:
        for name, attack in sorted(scenario.attack_dltts.items()):
            for p in validate(attack.dltts) + attack_problems(attack):
                problems.append(f"{name}: {p}")
        # a run the builder refuses raises; one it builds is valid by construction
        for run_name in scenario.runs:
            build_run(scenario, run_name)
    for p in problems:
        report.add(f"INVALID: {p}")
    if not problems:
        report.add("all systems valid")
    _emit(report.text())
    return 1 if problems else 0


_COMMANDS = {
    "metric": _cmd_metric,
    "analyze": _cmd_analyze,
    "dp-check": _cmd_dp_check,
    "attack": _cmd_attack,
    "strategy": _cmd_strategy,
    "export-dot": _cmd_export_dot,
    "validate": _cmd_validate,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # every subcommand but dp-check requires --scenario
        scenario = None
        if args.scenario is not None:
            from .scenario import load_scenario

            scenario = load_scenario(args.scenario)
        return _COMMANDS[args.command](scenario, args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # The interpreter's refusal to print an integer of too many digits:
        # any section may format an exact number its input made that long.
        if "integer string conversion" not in str(exc):
            raise
        print("error: an exact number in the report has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
