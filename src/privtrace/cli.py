"""Command-line front end.

Exit codes: 0 success or help; 1 when the requested finding is absent
(uncomparable pair, unbounded epsilon, empty attack report, validation
violations found); 2 on input or usage errors.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from typing import TYPE_CHECKING

from .records import InputError, Record, read_json, read_text

if TYPE_CHECKING:
    from .scenario import Scenario

# Every refusal of an input, a lookup an input can reach included, raises
# InputError; any other exception, a KeyError or a bare ValueError, is a bug.
INPUT_ERRORS = (OSError, InputError)


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:  # a lone surrogate, from a JSON escape
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


def _cmd_analyze(scenario: Scenario, args) -> int:
    from .scenario import parse_mode, run_scenario

    epsilon = None
    if args.epsilon:
        from .sections import oracle_bound

        epsilon = oracle_bound(args.epsilon, args.secret)
    report = run_scenario(scenario, epsilon=epsilon, secret=args.secret or None,
                          mode=parse_mode(args.mode))
    _emit(report.text())
    if args.dot:
        from .dotexport import write_dot

        runs = scenario.analysis.get("runs", [])
        for name in runs:
            write_dot(args.dot, report.runs[name], name, runs)
    if args.expect_violation:
        reached = any(report.values.get(f"run/{name}/stop_reached")
                      for name in scenario.analysis.get("runs", []))
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
        raise InputError("dp-check needs --mechanism-file, or --scenario plus --mechanism")
    report = Report(scenario.name if scenario else name)
    bounded = dp_section(report, name, m, args.adjacency, args.mode)
    _emit(report.text())
    return 0 if bounded else 1


def _cmd_attack(scenario: Scenario, args) -> int:
    from .scenario import Report, attack_section

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
    _emit(report.text())
    return 0 if found else 1


def _cmd_strategy(scenario: Scenario, args) -> int:
    from .scenario import Report, strategy_section

    report = Report(scenario.name)
    updated = strategy_section(scenario, report, args.attacker, args.baseline)
    _emit(report.text())
    if args.dot:
        from .dotexport import write_dot

        off_edges = frozenset((e.node, e.target) for e in updated.responses
                              if not updated.switched_on(e.node, e.line))
        write_dot(args.dot, updated.dltts, off_edges=off_edges)
    return 0


def _cmd_export_dot(scenario: Scenario, args) -> int:
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
    _emit(report.text())
    return 1 if problems else 0


# How many values each kind of option takes.
ARITY = {"flag": 0, "value": 1, "repeat": 1, "pair": 2}


class Option(Record):
    """A command's option: `--name`, kind (a repeatable one keeps every value,
    any other its last), help, whether it is required, the values it accepts
    (any when empty), its value when absent and its value's name in help."""

    name: str
    kind: str
    help: str
    required: bool = False
    choices: tuple[str, ...] = ()
    default: object = None
    metavar: str = ""


_HELP = Option("--help", "flag", "show this help and exit")
_SCENARIO = Option("--scenario", "value", "scenario JSON file", True)
_MODE = Option("--mode", "value", "interval measure", choices=("integer-set", "paper-compat"),
               default="integer-set")
_DOT = "write {} as DOT to this path, or next to it when there are several"

# The command line is read against this table in the grammar of Python's
# option parser, whose import and parsers cost more than some whole reports.
COMMANDS = {
    "metric": (_cmd_metric, "pairwise distances over table rows", (
        _SCENARIO, Option("--pair", "pair", "the two rows' line ids", True, metavar="LINE LINE"),
        _MODE, Option("--table", "value", "table name (default: the scenario's metric table)"))),
    "analyze": (_cmd_analyze, "full scenario report (runs + oracle)", (
        _SCENARIO, Option("--epsilon", "value", "arm the epsilon-violation oracle: an "
                          "exact bound on rho, as a fraction or decimal"),
        Option("--secret", "repeat", "a secret row for the epsilon check", metavar="TABLE:LINE"),
        _MODE, Option("--dot", "value", _DOT.format("each scripted run")),
        Option("--expect-violation", "flag", "exit 1 if no run reaches Stop", default=False))),
    "dp-check": (_cmd_dp_check, "LDP/DP epsilon bounds for a mechanism", (
        Option("--scenario", "value", "scenario JSON file (for named mechanisms)"),
        Option("--mechanism", "value", "mechanism name within the scenario"),
        Option("--mechanism-file", "value", "standalone mechanism JSON (outputs + probs)"),
        Option("--adjacency", "value", "which inputs are neighbours",
               choices=("hamming", "rho"), default="hamming"), _MODE)),
    "attack": (_cmd_attack, "threshold report for attackers", (
        _SCENARIO, Option("--attacker", "repeat", "an attacker's name", True),
        Option("--built", "flag", "build from the profile, not the transcript", default=False),
        Option("--dot", "value", _DOT.format("each attack system")))),
    "strategy": (_cmd_strategy, "response-blocking strategy report", (
        _SCENARIO, Option("--attacker", "value", "the attacker's name", True),
        Option("--baseline", "value", "baseline name (default from the scenario)"),
        Option("--dot", "value", "write the post-strategy system (OFF edges dashed) here"))),
    "export-dot": (_cmd_export_dot, "DOT rendering of a named system", (
        _SCENARIO, Option("--dltts", "value", "explicit transcript name"),
        Option("--attacker", "value", "attack transcript name"),
        Option("--run", "value", "scripted run name (built first)"),
        Option("--dot", "value", "output path (default: stdout)"))),
    "validate": (_cmd_validate, "validate scenario inputs and systems", (
        _SCENARIO, Option("--dltts", "value", "check one named system only"))),
}


class UsageError(Exception):
    """A command line `read_argv` refuses; `cli_main` prints it, exit 2."""


class HelpWanted(Exception):
    """-h or --help before any usage error: `cli_main` prints help, exit 0."""


def _option_at(token: str, names: dict[str, Option]):
    """The option parser's reading of `token` against option `names`: None
    for a value, else the option (None if unknown) and the value after
    `=` (or None).  A `--` name may be cut to a prefix no other name
    shares; `-1`, `-.5` and text with a space are values."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return names[token], None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return names[name], value
    if token[1] == "-":
        found = [n for n in names if n.startswith(name)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option {name}: {', '.join(found)}")
        if found:
            return names[found[0]], value if eq else None
    whole, dot, part = token[1:].partition(".")
    number = (part if dot else whole).isdecimal() and (not whole or whole.isdecimal())
    return None if number or " " in token else (None, None)


def _take(command: str | None, tokens: list, read: list, values: dict, extras: list) -> None:
    """Take each option of `tokens`, as `read` reads it, into `values` by
    name, left to right, and what no option takes into `extras`."""
    at = 0
    while at < len(tokens):
        option, value = read[at] or (None, None)
        at += 1
        if option is None:
            extras.append(tokens[at - 1])
            continue
        arity = ARITY[option.kind]
        taken, span = ([value], []) if value is not None else \
            (tokens[at:at + arity], read[at:at + arity])
        if len(taken) != arity or any(span):  # a value is no option and no `--`
            raise UsageError(f"option {option.name} takes {arity} value(s)")
        at += len(span)
        if option is _HELP:
            raise HelpWanted(command)
        if option.choices and taken[0] not in option.choices:
            raise UsageError(f"{option.name}: {taken[0]!r} is not one of {option.choices}")
        if option.kind == "repeat":
            taken = values[option.name] + taken
        values[option.name] = taken[0] if option.kind == "value" else taken or True


def read_argv(argv: list[str]) -> SimpleNamespace:
    """The command and its options' values, read from `argv` as Python's
    option parser reads them.  A usage error raises UsageError; -h or
    --help, read before one, raises HelpWanted."""
    names, extras = {"-h": _HELP, "--help": _HELP}, []
    read = [None if token == "--" else _option_at(token, names) for token in argv]
    at = read.index(None) if None in read else len(argv)  # the command's place
    _take(None, argv[:at], read, {}, extras)
    if at == len(argv) or argv[at] not in COMMANDS:
        raise UsageError(f"{'no command' if at == len(argv) else repr(argv[at])}: "
                         f"choose a command from {', '.join(COMMANDS)}")
    command, tokens = argv[at], argv[at + 1:]
    options = COMMANDS[command][2]
    names |= {o.name: o for o in options}
    # Every token is read before any is taken, so an ambiguous prefix is an
    # error even after -h.  From `--` on, no token is an option or a value.
    end = tokens.index("--") if "--" in tokens else len(tokens)
    read = [_option_at(t, names) for t in tokens[:end]] + [(None, None)] * (len(tokens) - end)
    values = {o.name: [] if o.kind == "repeat" else o.default for o in options}
    _take(command, tokens, read, values, extras)
    missing = [o.name for o in options if o.required and values[o.name] in (None, [])]
    if missing or extras:
        raise UsageError(f"{command}: missing {', '.join(missing)}" if missing
                         else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
    except HelpWanted as exc:
        from .usage import help_text

        _emit(help_text(COMMANDS, _HELP, *exc.args))
        return 0
    except UsageError as exc:
        print(f"privtrace: error: {exc}", file=sys.stderr)
        return 2
    try:
        # every subcommand but dp-check requires --scenario
        scenario = None
        if args.scenario is not None:
            from .scenario import load_scenario

            scenario = load_scenario(args.scenario)
        return COMMANDS[args.command][0](scenario, args)
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
