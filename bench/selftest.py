"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "trace-saturate": {"depts": 2, "categories": 2, "secrets": 3, "depth": 2,
                       "fanout": 2, "violation_leaves": 1, "epsilon_leaves": 1},
    "attack-strategy": {"qi_values": [2, 2, 2], "rows_per_combo": 2},
    "dp-audit": {"inputs": 3, "outputs": 4},
}


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    a = gen.generate(workload, tmp_path / "a", 7)
    b = gen.generate(workload, tmp_path / "b", 7)
    c = gen.generate(workload, tmp_path / "c", 8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.truth == b.truth
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_oracle_agrees_with_the_program_at_a_small_size(workload, seed, tmp_path):
    case = gen.generate(workload, tmp_path, seed, SMALL[workload])
    code, out, err = tracing.call_cli(case.argv)
    assert oracle.check(workload, case.truth, code, out, err) == []


def test_planted_truth_is_not_trivial(tmp_path):
    case = gen.generate("trace-saturate", tmp_path / "t", 1)
    assert sorted(v for v, _ in case.truth["verdicts"].values()) == (
        ["epsilon-violation"] * 3 + ["violation"] * 3)
    case = gen.generate("attack-strategy", tmp_path / "a", 1)
    assert all(oracle.expected_off(case.truth, a) for a in case.truth["attackers"])


CORRUPTIONS = {
    "trace-saturate": lambda out: out.replace("STOP  probability ", "STOP  probability 2*", 1),
    "attack-strategy": lambda out: out.replace("switched off: ", "switched off: s1:l1, ", 1),
    "dp-audit": lambda out: out.replace("min DP epsilon (hamming) = ln(",
                                        "min DP epsilon (hamming) = ln(1", 1),
}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_a_corrupted_report_fails(workload, tmp_path):
    case = gen.generate(workload, tmp_path, 2, SMALL[workload])
    code, out, err = tracing.call_cli(case.argv)
    bad = CORRUPTIONS[workload](out)
    assert bad != out
    assert oracle.check(workload, case.truth, code, bad, err)
    assert oracle.check(workload, case.truth, 2, out, err)
    assert oracle.check(workload, case.truth, code, out, "Traceback (most recent call last):")

    check = run.Checker(case, seed=2)
    assert check(code, out, err) == []
    assert check(code, out + "extra line\n", err) != []


def test_default_seed_has_a_reference_digest_per_workload():
    reference = json.loads(run.REFERENCE.read_text())
    assert sorted(reference) == sorted(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_wrapping_leaves_report_bodies_identical(workload, tmp_path):
    case = gen.generate(workload, tmp_path, 2, SMALL[workload])
    check = run.Checker(case, seed=2)
    result = tracing.traced_run(case.argv, 0.0, check)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == 2
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    named = {"trace-saturate": "dltts.saturate.calls",
             "attack-strategy": "attack.max_pr.calls",
             "dp-audit": "privacy.input_pairs"}[workload]
    assert result["metrics"][named] > 0
    tracer = result["tracer"]
    assert [s for s in tracer.spans if s[0] == "cli.cli_main"]
    # The wrappers are gone once the traced invocation ends.
    import privtrace.dltts
    assert privtrace.dltts.rho.__module__ == "privtrace.metrics"


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def test_one_command_runs_every_workload_and_prints_every_metric():
    done = _bench(ROOT, "--workload", "all", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    for workload in gen.WORKLOADS:
        for name, unit in run.END_TO_END.items():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines)


def test_a_wrong_program_makes_the_command_fail(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "privtrace", tmp_path / "src" / "privtrace",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = tmp_path / "src" / "privtrace" / "scenario.py"
    text = scenario.read_text()
    assert 'f"  probability {r.probability}"' in text
    scenario.write_text(text.replace('f"  probability {r.probability}"',
                                     'f"  probability {r.probability / 2}"'))
    done = _bench(tmp_path, "--workload", "trace-saturate", "--seconds", "0")
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "dp-audit", "--seconds", "1")
    assert done.returncode == 2
    assert done.stdout == ""


def test_manifest_and_benchmark_json_match_the_code():
    manifest = json.loads((HERE / "manifest.json").read_text())
    assert {w: d["params"] for w, d in manifest["workloads"].items()} == gen.PARAMS
    assert list(manifest["per_layer"]) == list(tracing.PER_LAYER)
    assert {n: d["unit"] for n, d in manifest["end_to_end"].items()} == run.END_TO_END
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        doc = json.loads(bench.read_text())
        assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
