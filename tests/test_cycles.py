"""A report makes no reference cycles, so the process entry `cli.main` runs
it with the cycle collector off and freezes the heap before exit, which
spares the full collections the interpreter would make over every object
at shutdown.  These tests hold the premise, that reference counting alone
frees all a report leaves, on each kind of command line, and hold that only
the process entry touches the collector: `cli_main`, the library entry,
leaves it as it found it."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

from conftest import SCENARIOS, salary_scenario

from privtrace.cli import cli_main

HOSPITAL = str(SCENARIOS / "hospital" / "scenario.json")
ENTERPRISE = str(SCENARIOS / "enterprise" / "scenario.json")

# Runs each command line of the JSON list in argv[1] through `cli_main`,
# its output discarded, with the collector off from a clean heap, and prints
# each one's exit code and the objects a full collection then finds
# unreachable: those only a cycle kept alive.
COLLECT = """\
import contextlib, gc, io, json, sys
from privtrace.cli import cli_main
found = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.disable()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    found.append([code, gc.collect()])
    gc.enable()
print(json.dumps(found))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def _generate(workload: str, out: Path, params: dict) -> list[str]:
    """The command line of a `bench/gen.py` input of `workload` at seed 1,
    written to `out`.  The generator's source is run without an import, so
    no bytecode is written next to it."""
    path = SCENARIOS.parent / "bench" / "gen.py"
    gen = types.ModuleType("bench_gen")
    sys.modules[gen.__name__] = gen  # `dataclass` looks its module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), vars(gen))
        return gen.generate(workload, out, 1, params).argv
    finally:
        del sys.modules[gen.__name__]


def _refused(directory: Path) -> str:
    """`salary_scenario` with a normalizer of 1 on pay's Salary, where s1
    learns (John,7) and (Mary,9): both R1 joins are past that normalizer
    from the secret pay:l1, so the armed oracle's first measure is
    refused, it measures again in a fixed order, and the run exits 2."""
    directory.mkdir()
    salary_scenario(directory, {"normalizer": "1"})
    for name, old, new in [("depts.csv", "John,Phys\n", "John,Phys\nMary,Chem\n"),
                           ("scenario.json", '"(John,7)"', '"(John,7)", "(Mary,9)"')]:
        path = directory / name
        path.write_text(path.read_text().replace(old, new, 1))
    return str(directory / "scenario.json")


def _nested(directory: Path) -> str:
    """A copy of hospital whose transcript has a label with nested
    brackets, which the one-match reader leaves to the bracket scanner."""
    shutil.copytree(SCENARIOS / "hospital", directory)
    path = directory / "trace.dltts"
    text = path.read_text(encoding="utf-8")
    assert "M:0 {l1,l3}" in text
    path.write_text(text.replace("M:0 {l1,l3}", "M:0 {l1,l3} (a (b))"), encoding="utf-8")
    return str(directory / "scenario.json")


def test_no_command_line_leaves_cyclic_garbage(tmp_path):
    """Every subcommand on both bundled scenarios, the armed oracle, the
    drawings, refusals of each kind and two generated inputs: after each,
    a full collection finds nothing unreachable.  Each command line's exit
    code is pinned, so that each takes the path it is here for."""
    dot = str(tmp_path / "out.dot")
    mechanism = tmp_path / "rr.json"
    mechanism.write_text(json.dumps(
        {"probs": {"a": {"x": "3/4", "y": "1/4"}, "b": {"x": "1/4", "y": "3/4"}}}))
    armed = ["analyze", "--scenario", HOSPITAL, "--epsilon"]
    saturate = _generate("trace-saturate", tmp_path / "saturate", {"depth": 5})
    attack = _generate("attack-strategy", tmp_path / "attack",
                       {"qi_values": [3, 4, 4], "rows_per_combo": 20})
    assert len((tmp_path / "attack" / "attack_a.dltts").read_text().splitlines()) >= 1000
    expected = [
        (["metric", "--scenario", HOSPITAL, "--pair", "l4", "l5"], 0),
        (["analyze", "--scenario", HOSPITAL], 0),
        (["dp-check", "--scenario", HOSPITAL, "--mechanism", "viral_query"], 0),
        (["dp-check", "--scenario", HOSPITAL, "--mechanism", "viral_query",
          "--adjacency", "rho"], 0),
        (["attack", "--scenario", HOSPITAL, "--attacker", "A"], 2),
        (["strategy", "--scenario", HOSPITAL, "--attacker", "A"], 2),
        (["export-dot", "--scenario", HOSPITAL, "--run", "trace", "--dot", dot], 0),
        (["export-dot", "--scenario", HOSPITAL, "--dltts", "trace"], 0),
        (["validate", "--scenario", HOSPITAL], 0),
        (["metric", "--scenario", ENTERPRISE, "--pair", "l1", "l2", "--table",
          "responses"], 1),
        (["analyze", "--scenario", ENTERPRISE], 0),
        (["dp-check", "--scenario", ENTERPRISE, "--mechanism", "m"], 2),
        (["dp-check", "--mechanism-file", str(mechanism)], 0),
        (["attack", "--scenario", ENTERPRISE, "--attacker", "A", "--attacker", "B",
          "--attacker", "C", "--dot", dot], 0),
        (["attack", "--scenario", ENTERPRISE, "--built", "--attacker", "A"], 0),
        (["strategy", "--scenario", ENTERPRISE, "--attacker", "B"], 0),
        (["export-dot", "--scenario", ENTERPRISE, "--attacker", "A"], 0),
        (["validate", "--scenario", ENTERPRISE], 1),
        ([*armed, "0", "--secret", "published:l4"], 0),
        ([*armed, "1.951", "--secret", "published:l5", "--mode", "paper-compat"], 0),
        ([*armed, "0", "--secret", "published:l4", "--dot", dot], 0),
        ([*armed, "-1", "--secret", "published:l4"], 2),
        (["analyze", "--scenario", str(tmp_path / "missing.json")], 2),
        (["analyze", "--scenario", HOSPITAL, "--no-such-option"], 2),
        (["analyze", "--scenario", _refused(tmp_path / "refused"), "--epsilon", "0",
          "--secret", "pay:l1"], 2),
        (["analyze", "--scenario", _nested(tmp_path / "nested")], 0),
        (saturate, 0),
        (attack, 0),
    ]
    done = _python("-c", COLLECT, json.dumps([argv for argv, _ in expected]))
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert {" ".join(argv): tuple(got) for (argv, _), got in zip(expected, found)} == \
        {" ".join(argv): (code, 0) for argv, code in expected}


# Runs `cli.main` as the console script does, with an exit hook that prints
# whether the collector is on and whether the heap was frozen.
ENTRY = """\
import atexit, gc, sys
from privtrace.cli import main
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
sys.argv[0] = "privtrace"
main()
"""


def test_only_the_process_entry_turns_the_collector_off():
    done = _python("-c", ENTRY, "analyze", "--scenario", HOSPITAL)
    assert done.returncode == 0, done.stderr
    assert "stop reached: s0 -> s2 -> s4 -> s6 -> STOP" in done.stdout
    assert done.stdout.splitlines()[-1] == "False True"
    assert gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["analyze", "--scenario", HOSPITAL]) == 0
    assert gc.isenabled()
