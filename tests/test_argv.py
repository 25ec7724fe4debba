"""The command line is read against one table, `cli.COMMANDS`, by
`cli.read_argv`.  Its oracle is the argparse parser it replaced
(`reference.build_parser`): on seeded command lines, well-formed and not,
both must accept, print help or refuse alike, and accept with the same
values.  Only the wording of a refusal may differ."""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from privtrace.cli import ARITY, COMMANDS, HelpWanted, UsageError, cli_main, read_argv

from conftest import SCENARIOS
from reference import build_parser

PARSER = build_parser()
HOSPITAL = str(SCENARIOS / "hospital" / "scenario.json")
ENTERPRISE = str(SCENARIOS / "enterprise" / "scenario.json")


def _argparse(argv: list[str]):
    """argparse's reading of `argv`: ("accept", its values), ("help",) or
    ("refuse",)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "accept", vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("refuse",)


def _reader(argv: list[str]):
    try:
        return "accept", vars(read_argv(argv))
    except HelpWanted:
        return ("help",)
    except UsageError:
        return ("refuse",)


def test_the_table_names_the_parsers_commands_and_options():
    (commands,) = [a for a in PARSER._actions if a.dest == "command"]
    assert list(commands.choices) == list(COMMANDS)
    for name, parser in commands.choices.items():
        names = [s for a in parser._actions for s in a.option_strings]
        assert names == ["-h", "--help", *(o.name for o in COMMANDS[name][2])]


# Values an option may be given.  Left out, because argparse releases of
# the supported Pythons (3.10-3.13) may read them differently: a token of
# `-` and a digit that is not `-N`, `-N.N` or `-.N` (`-1/2`, `-1e5`,
# `-1_000`), which 3.11 reads as an option and a wider negative-number
# test as a value; `-h=X`; a `--` that ends the command line or stands
# before the command; and `--name=--`.  Left out as a deliberate
# difference: argparse 3.11 reads `-hX` as -h given a value it cannot
# take, `--name=--` as an empty list, and `-1` followed by a newline as a
# negative number; `read_argv` reads the first and the last as unknown
# options and the second as the value `--`.
VALUES = ["s", "l4", "l5", "A", "published:l4", "1/3", "0", "-1", "-0.5", "-.5", "--x",
          "", "-", "a b", "-x y", "--mode", "-h", "integer-set", "rho", "x=y",
          "--scenario=s"]


def _spell(rng: random.Random, name: str) -> str:
    """`name` as typed: whole, or cut to a prefix, which other names of
    its command may share."""
    return name if rng.random() < 0.6 else name[:rng.randint(3, len(name))]


def _value(rng: random.Random, option) -> str:
    if option.choices and rng.random() < 0.7:
        return rng.choice(option.choices)
    return rng.choice(VALUES)


def _option_tokens(rng: random.Random, option) -> list[str]:
    name = _spell(rng, option.name)
    arity = ARITY[option.kind]
    if rng.random() < 0.15:  # `=`, for options of any arity
        return [f"{name}={_value(rng, option)}"] + [_value(rng, option)] * (arity == 2)
    if rng.random() < 0.1:  # a value short
        arity = max(arity - 1, 0)
    return [name, *(_value(rng, option) for _ in range(arity))]


def _argv(rng: random.Random) -> list[str]:
    """One command line: mostly a command with its options, some required
    ones left out, repeats, stray tokens, help, unknown options and `--`;
    sometimes no command or a wrong one."""
    before = []
    if rng.random() < 0.08:
        before.append(rng.choice(["-h", "--help", "--he", "--h", "--help=x", "--h=",
                                  "--foo", "-x", "--foo=1"]))
    roll = rng.random()
    if roll < 0.03:
        return before
    if roll < 0.07:
        return [*before, rng.choice(["anal", "Analyze", "", "-1", "x", "metric2"]),
                *rng.choice([[], ["-h"], ["--scenario", "s"]])]
    command = rng.choice(list(COMMANDS))
    options = COMMANDS[command][2]
    tokens: list[list[str]] = []
    for option in options:
        if rng.random() < (0.9 if option.required else 0.35):
            tokens.append(_option_tokens(rng, option))
    for _ in range(rng.choice([0, 0, 1, 2])):  # repeats
        tokens.append(_option_tokens(rng, rng.choice(options)))
    if rng.random() < 0.06:
        tokens.append([rng.choice(["-h", "--help", "--he", "--help=x"])])
    if rng.random() < 0.08:
        tokens.append([rng.choice(["--nope", "-x", "--scenario-x", "---scenario", "x",
                                   "--=x", "-"])])
    if rng.random() < 0.05:
        tokens.append(["--", rng.choice(["--scenario", "s", "-h", "--x"])])
    rng.shuffle(tokens)
    return [*before, command, *(t for group in tokens for t in group)]


def test_reader_agrees_with_argparse_on_seeded_command_lines():
    rng = random.Random(20261020)
    kinds = {"accept": 0, "help": 0, "refuse": 0}
    for _ in range(4000):
        argv = _argv(rng)
        want = _argparse(list(argv))
        assert _reader(list(argv)) == want, argv
        kinds[want[0]] += 1
    assert min(kinds.values()) > 150, kinds


@pytest.mark.parametrize("argv, code", [
    (["-hx"], 2),
    (["analyze", "-hx"], 2),
    (["analyze", "--scenario", HOSPITAL, "--"], 2),
    (["--", "analyze", "--scenario", HOSPITAL], 2),
    (["analyze", "--scenario", HOSPITAL, "--epsilon", "-1/2"], 2),
    (["analyze", "--scenario", HOSPITAL, "--epsilon", "-1e5"], 2),
    (["analyze", "--scenario", HOSPITAL, "--epsilon=--"], 2),
])
def test_forms_left_out_of_the_differential_test(argv, code, capsys):
    """`-hX`, `-1/2` and `-1e5` are unknown options, a `--` with nothing
    after it or before the command is refused, and `--epsilon=--` is the
    value `--`."""
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    if argv[-1] == "--epsilon=--":
        assert err.startswith("error: --epsilon '--': ")
    else:
        assert err.startswith("privtrace: error: ")


def test_help_names_every_command_and_option(capsys):
    assert cli_main(["--help"]) == 0
    top = capsys.readouterr().out
    for command, (_, about, options) in COMMANDS.items():
        assert f"privtrace {command} " in top and about in top
        assert cli_main([command, "-h"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: privtrace {command} ")
        for option in options:
            assert f"  {option.name}" in text and option.help in text
    assert "--scenario SCENARIO" in top


def test_a_usage_error_is_one_line_on_stderr(capsys):
    assert cli_main(["analyze", "--mode", "exact", "--scenario", HOSPITAL]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("privtrace: error: --mode: 'exact' is not one of "
                            "('integer-set', 'paper-compat')\n")


def _spellings(options) -> list[str]:
    """Each name of `options` and its prefixes past `--`, with help, `--`
    and an unknown option."""
    return sorted({o.name[:k] for o in options for k in range(3, len(o.name) + 1)}
                  | {"-h", "--help", "--", "--nope"})


# What the random command lines are made of, beside the commands and their
# option names: the bundled scenarios, a DOT path beside them, names from
# them, numbers and `=`.
_VALUES = ["A", "B", "C", "trace", "l4", "l5", "published", "published:l4", "viral_query",
           "rho", "hamming", "integer-set", "paper-compat", "0", "1/2", "-1", "-1/2", "",
           "-", "="]
_EVERY_OPTION = [o for _, _, options in COMMANDS.values() for o in options]


def _given(option, values, paths):
    """`option` written out with as many values as it takes: a choice, a
    scenario path for --scenario, else any value."""
    if option.choices or option.name == "--scenario":
        values = st.sampled_from(option.choices or paths)
    arity = ARITY[option.kind]
    return st.lists(values, min_size=arity, max_size=arity).map(lambda v: [option.name, *v])


def test_every_command_line_ends_in_a_report_or_exit_two(monkeypatch):
    """Random token lists run in-process, in a scratch directory, on fresh
    copies of the bundled scenarios (a `--dot` may overwrite one): each
    returns 0, 1 or 2 without raising, prints the same stdout when run
    again, and prints at most one `error:` line."""
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        scenarios = Path(tmp, "scenarios")
        paths = [str(scenarios / s / "scenario.json") for s in ("hospital", "enterprise")]
        values = st.sampled_from([*_VALUES, str(scenarios / "out.dot"), *paths])

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(st.data())
        def check(data):
            command = data.draw(st.sampled_from([*COMMANDS, "-h", "--", "x"]))
            options = COMMANDS[command][2] if command in COMMANDS else _EVERY_OPTION
            names = st.sampled_from(_spellings(options))
            given = st.sampled_from(options).flatmap(lambda o: _given(o, values, paths))
            chunks = st.one_of(given, given, given,
                               st.tuples(names, values).map(lambda t: ["=".join(t)]),
                               st.one_of(names, values).map(lambda w: [w]))
            argv = [command]
            if data.draw(st.booleans()):
                argv += ["--scenario", data.draw(st.sampled_from(paths))]
            for chunk in data.draw(st.lists(chunks, max_size=4)):
                argv += chunk
            outs = []
            for _ in range(2):
                shutil.rmtree(scenarios, ignore_errors=True)
                shutil.copytree(SCENARIOS, scenarios)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(argv)
                assert code in (0, 1, 2), argv
                assert err.getvalue().count("error:") <= 1, (argv, err.getvalue())
                outs.append(out.getvalue())
            assert outs[0] == outs[1], argv

        check()
