"""Which modules each path imports.  Every check runs in a fresh interpreter,
because this test process has already imported the whole package."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SCENARIOS

SRC = str(SCENARIOS.parent / "src")
HOSPITAL = str(SCENARIOS / "hospital" / "scenario.json")


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Prints the privtrace modules loaded, after checking that `dataclasses`
# and `inspect` (which `dataclasses` imports) are not, nor `argparse` and
# the `gettext` and `locale` it imports: records are plain classes, the
# command line is read from a table, and none of these modules is on any
# subcommand's path.
LOADED = (
    "import json, sys\n"
    "unwanted = {'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
    "assert not unwanted, sorted(unwanted)\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('privtrace.'))))\n"
)


def test_import_privtrace_loads_no_submodule():
    assert _python("import privtrace\n" + LOADED) == "[]\n"


def _dp_check_loads(tmp_path, probs: dict, *args: str, code: int = 0,
                    error: str = "") -> set[str]:
    """The privtrace modules a `dp-check` of a mechanism file with `probs`
    loads; it must exit with `code`, its stderr starting with `error`."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"probs": probs}))
    out = _python(
        "import contextlib, io, sys\n"
        "from privtrace.cli import cli_main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    code = cli_main(['dp-check', '--mechanism-file', *sys.argv[3:]])\n"
        "assert code == int(sys.argv[1]), (code, err.getvalue())\n"
        "assert err.getvalue().startswith(sys.argv[2]), err.getvalue()\n"
        + LOADED,
        str(code), error, str(path), *args,
    )
    return set(json.loads(out))


RR = {"a": {"x": "3/4", "y": "1/4"}, "b": {"x": "1/4", "y": "3/4"}}


def test_import_privacy_loads_neither_cells_nor_the_indistinguishability_calculus():
    loaded = set(json.loads(_python("import privtrace.privacy\n" + LOADED)))
    assert loaded == {"privtrace.privacy", "privtrace.records"}


def test_dp_check_on_a_mechanism_file_skips_the_system_layers(tmp_path):
    """Hamming puts every pair of opaque names at distance 1, so neither
    the metric, the cell nor the schema layer is loaded, nor the pair scan
    in `indist`."""
    assert _dp_check_loads(tmp_path, RR) == {
        f"privtrace.{m}" for m in ("cli", "records", "privacy", "report")}


def test_dp_check_under_rho_loads_the_metric_layer(tmp_path):
    """Opaque names are 1-tuples of atoms, so rho reads no table row and
    the schema layer stays unloaded, as do both system layers."""
    loaded = _dp_check_loads(tmp_path, RR, "--adjacency", "rho")
    assert loaded == {f"privtrace.{m}" for m in (
        "cli", "records", "privacy", "report", "indist", "metrics", "values")}
    for layer in ("lts", "dltts"):
        assert f"privtrace.{layer}" not in loaded


def test_dp_check_of_an_empty_input_name_still_exits_two(tmp_path):
    """An empty name is no atom, so Hamming DP keeps the pair scan, which
    measures it."""
    _dp_check_loads(tmp_path, {"": {"x": "1"}, "b": {"x": "1"}},
                    code=2, error="error: empty atom")


def _analyze_loads(scenario: str, expect: str) -> set[str]:
    """The privtrace modules an `analyze` of `scenario` loads; its report
    must contain `expect`."""
    out = _python(
        "import contextlib, io, sys\n"
        "from privtrace.cli import cli_main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    assert cli_main(['analyze', '--scenario', sys.argv[1]]) == 0\n"
        "assert sys.argv[2] in buf.getvalue()\n"
        + LOADED,
        scenario, expect,
    )
    return set(json.loads(out))


def test_analyze_loads_what_it_runs():
    """Hospital has mechanisms, a transcript and a label-equivalence
    section but no attack system or profile."""
    loaded = _analyze_loads(HOSPITAL, "stop reached: s0 -> s2 -> s4 -> s6 -> STOP")
    for layer in ("scenario", "lts", "transcript", "dltts", "privacy", "sections"):
        assert f"privtrace.{layer}" in loaded
    for layer in ("attack", "dotexport", "commands"):
        assert f"privtrace.{layer}" not in loaded


def test_analyze_of_attacks_only_skips_the_mechanism_layer():
    """Attack trees are plain transition systems: the core in `lts`, and
    no tags, so neither the knowledge layer nor the metric layer loads."""
    loaded = _analyze_loads(str(SCENARIOS / "enterprise" / "scenario.json"),
                            "## strategy B vs C (declared baseline)")
    for layer in ("attack", "lts", "transcript"):
        assert f"privtrace.{layer}" in loaded
    for layer in ("dltts", "privacy", "metrics", "dotexport", "sections", "commands"):
        assert f"privtrace.{layer}" not in loaded


def _attacks_only(directory: Path) -> str:
    """A copy of the enterprise scenario without profiles: attack
    transcripts and their attack and strategy sections alone."""
    shutil.copytree(SCENARIOS / "enterprise", directory)
    path = directory / "scenario.json"
    doc = json.loads(path.read_text())
    del doc["profiles"]
    path.write_text(json.dumps(doc))
    return str(path)


def _runs_only(directory: Path) -> str:
    """A copy of the hospital scenario whose only analysis is its scripted
    run, and which names neither a mechanism nor a transcript, as a
    generated trace-saturate input does not."""
    shutil.copytree(Path(HOSPITAL).parent, directory)
    path = directory / "scenario.json"
    doc = json.loads(path.read_text())
    del doc["mechanisms"], doc["dltts"]
    doc["analysis"] = {"runs": ["trace"]}
    path.write_text(json.dumps(doc))
    return str(path)


ARMED = ("--epsilon", "0", "--secret", "published:l4")


def test_analyze_of_runs_only_loads_neither_attack_nor_mechanism_layer(tmp_path):
    """A scenario whose only analysis is an unarmed scripted run: the core
    path, which measures nothing, so the metric layer stays unloaded, and
    names no transcript, so the transcript reader stays unloaded too."""
    path = _runs_only(tmp_path / "runs")
    loaded = _analyze_loads(path, "stop reached: s0 -> s2 -> s4 -> s6 -> STOP")
    assert loaded == {f"privtrace.{m}" for m in (
        "cli", "report", "scenario", "records", "values", "schema", "lts", "dltts")}


def _compiled_lines(*argv: str) -> int:
    """The lines of privtrace source that the CLI run `argv` loads, and so
    compiles at every start where no bytecode cache can be written (as under
    `PYTHONDONTWRITEBYTECODE=1`); the run must exit 0."""
    return int(_python(
        "import contextlib, io, sys\n"
        "from privtrace.cli import cli_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli_main(sys.argv[1:]) == 0\n"
        "print(sum(open(m.__file__).read().count('\\n') for n, m in sys.modules.items()\n"
        "          if n.partition('.')[0] == 'privtrace'))\n",
        *argv,
    ))


def test_compiled_source_lines_per_path(tmp_path):
    """An attack-only report loaded 2,674 lines, 781 of them in functions it
    never calls, until the metric section, the profile builder, the runs to
    Stop and `validate` left its modules, and 2,391 until the handlers of
    the commands that write no `analyze` or `dp-check` report left `cli`
    for `commands` and the mechanism sections left `scenario` for
    `sections`: it now stays within 2,330.  A mechanism file's dp-check
    loaded 1,450 lines until the record base left `values` for `records`
    and the indistinguishability calculus left `privacy` for `indist`, and
    976 until those handlers left `cli`: it now stays within 900.  The
    armed scripted run loaded 2,994 lines until the transcript reader left
    `lts` for `transcript`, `epsilon_equivalent_labels` left `dltts` for
    `indist`, the oracle's arming left `sections` for `dltts` and those
    handlers and sections left `cli` and `scenario`: it now stays within
    2,700, and the unarmed run, held to 2,697 lines when it loaded 2,604,
    within 2,390."""
    path = _attacks_only(tmp_path / "attacks")
    assert _compiled_lines("analyze", "--scenario", path) <= 2330

    mechanism = tmp_path / "m.json"
    mechanism.write_text(json.dumps({"probs": RR}))
    assert _compiled_lines("dp-check", "--mechanism-file", str(mechanism)) <= 900

    path = _runs_only(tmp_path / "runs")
    assert _compiled_lines("analyze", "--scenario", path, *ARMED) <= 2700
    assert _compiled_lines("analyze", "--scenario", path) <= 2390


def test_no_report_path_compiles_the_cli_twice(tmp_path):
    """Under `python -m privtrace.cli` the front end runs as `__main__`, so
    a module that imported `privtrace.cli` would compile it a second time:
    `-X importtime`, which lists every module imported, lists no
    `privtrace.cli` on the attack-only, dp-check and armed-run paths."""
    mechanism = tmp_path / "m.json"
    mechanism.write_text(json.dumps({"probs": RR}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for argv in (["analyze", "--scenario", _attacks_only(tmp_path / "attacks")],
                 ["dp-check", "--mechanism-file", str(mechanism)],
                 ["analyze", "--scenario", _runs_only(tmp_path / "runs"), *ARMED]):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "privtrace.cli",
                               *argv], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        imported = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "privtrace.report" in imported, argv
        assert "privtrace.cli" not in imported, argv


def test_export_dot_of_an_attack_tree_skips_the_knowledge_layer(tmp_path):
    out = tmp_path / "a.dot"
    loaded = set(json.loads(_python(
        "import contextlib, io, sys\n"
        "from privtrace.cli import cli_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli_main(['export-dot', '--scenario', sys.argv[1],\n"
        "                     '--attacker', 'A', '--dot', sys.argv[2]]) == 0\n"
        + LOADED,
        str(SCENARIOS / "enterprise" / "scenario.json"), str(out),
    )))
    assert out.read_text().startswith("digraph dltts {")
    for layer in ("lts", "dotexport"):
        assert f"privtrace.{layer}" in loaded
    assert "privtrace.dltts" not in loaded


def test_attack_and_strategy_load_the_dot_layer_only_under_dot(tmp_path):
    """`attack` and `strategy` import `dotexport` only when `--dot` asks
    for a drawing, as `analyze` does."""
    code = (
        "import contextlib, io, sys\n"
        "from privtrace.cli import cli_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli_main(sys.argv[1:]) == 0\n"
        + LOADED
    )
    scenario = ["--scenario", str(SCENARIOS / "enterprise" / "scenario.json")]
    for argv in (["attack", "--attacker", "A"], ["strategy", "--attacker", "B"]):
        assert "privtrace.dotexport" not in json.loads(_python(code, *argv, *scenario))
        dot = tmp_path / f"{argv[0]}.dot"
        loaded = json.loads(_python(code, *argv, *scenario, "--dot", str(dot)))
        assert "privtrace.dotexport" in loaded
        assert dot.read_text().startswith("digraph dltts {")


def test_every_public_name_is_its_module_attribute():
    out = _python(
        "import importlib, privtrace\n"
        "assert set(privtrace.__all__) <= set(dir(privtrace))\n"
        "for name in privtrace.__all__:\n"
        "    module = importlib.import_module('privtrace.' + privtrace._LAZY[name])\n"
        "    assert getattr(privtrace, name) is getattr(module, name), name\n"
        "print(len(privtrace.__all__))\n"
    )
    assert out == "58\n"


def test_unknown_attribute_raises_attribute_error():
    out = _python(
        "import privtrace\n"
        "try:\n"
        "    privtrace.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "no_such_name" in out
