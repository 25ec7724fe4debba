"""The handlers of the subcommands that write no `analyze` or `dp-check`
report: `metric`, `attack`, `strategy`, `export-dot` and `validate`.

`cli.COMMANDS` imports this module only when one of them runs, so no
report path compiles it.  Each takes the loaded scenario, which every one
of them requires, and the options `cli.read_argv` read, and returns the
exit code.  The names the benchmark's tracer wraps in `scenario` are
imported when a handler runs, so that a traced run sees the wrapped ones.
"""

from __future__ import annotations

from .records import InputError
from .report import Report, emit, parse_mode
from .scenario import Scenario


def metric_command(scenario: Scenario, args) -> int:
    from .sections import metric_section

    table = args.table or scenario.analysis.get("metric", {}).get("table")
    if table is None:
        raise InputError("no table given and the scenario names none")
    report = Report(scenario.name)
    ok = metric_section(scenario, report, table, [tuple(args.pair)],
                        [parse_mode(args.mode)])
    emit(report.text())
    return 0 if ok else 1


def attack_command(scenario: Scenario, args) -> int:
    from .scenario import attack_section

    report = Report(scenario.name)
    found = False
    for name in args.attacker:
        attack, has_thresholds = attack_section(scenario, report, name, built=args.built)
        found = has_thresholds or found
        if args.built:
            from .profiles import attack_problems

            for prob in attack_problems(attack, scenario.attack_table()):
                report.add(f"INVALID: {prob}")
        if args.dot:
            from .dotexport import write_dot

            write_dot(args.dot, attack.dltts, name, args.attacker)
    emit(report.text())
    return 0 if found else 1


def strategy_command(scenario: Scenario, args) -> int:
    from .scenario import strategy_section

    report = Report(scenario.name)
    updated = strategy_section(scenario, report, args.attacker, args.baseline)
    emit(report.text())
    if args.dot:
        from .dotexport import write_dot

        off_edges = frozenset((e.node, e.target) for e in updated.responses
                              if not updated.switched_on(e.node, e.line))
        write_dot(args.dot, updated.dltts, off_edges=off_edges)
    return 0


def export_dot_command(scenario: Scenario, args) -> int:
    from .dotexport import export_dot, write_dot
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
        write_dot(args.dot, dltts)
    else:
        emit(export_dot(dltts))
    return 0


def validate_command(scenario: Scenario, args) -> int:
    from .dltts import validate
    from .profiles import attack_problems
    from .scenario import build_run

    report = Report(scenario.name)
    problems: list[str] = []
    names = [args.dltts] if args.dltts else sorted(scenario.dltts)
    for name in names:
        dltts = scenario.dltts.get(name)
        if dltts is None:
            raise InputError(f"no explicit system named {name!r}")
        problems += [f"{name}: {p}" for p in validate(dltts)]
    if not args.dltts:
        for name, attack in sorted(scenario.attack_dltts.items()):
            problems += [f"{name}: {p}"
                         for p in validate(attack.dltts) + attack_problems(attack)]
        # a run the builder refuses raises; one it builds is valid by construction
        for run_name in scenario.runs:
            build_run(scenario, run_name)
    for p in problems:
        report.add(f"INVALID: {p}")
    if not problems:
        report.add("all systems valid")
    emit(report.text())
    return 1 if problems else 0
