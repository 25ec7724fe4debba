"""The privtrace benchmark: seeded, generated workloads through the real CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload trace-saturate --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 5

`--trace 0` is a closed loop with one client: each report is a fresh
`python -m privtrace.cli` process, timed from spawn to exit, and the run
prints the end-to-end metrics.  Times are given in reference seconds (see
CALIBRATION below); each run also prints its raw wall-time medians.  `--trace 1` runs the same invocations
in-process with every layer's public functions wrapped (see tracing.py)
and prints the per-layer metrics.  Every report is checked against the
generator's planted truth (see oracle.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit status is 0 when every
report is correct, 1 when one is not, and 2 when the program's sources are
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 15
REPORT_TIMEOUT_S = 120
TAIL_BEYOND = 10

# A fixed pure-Python job, run in a fresh interpreter right after every
# report and every set-up probe.  The host is a shared virtual machine whose
# speed drifts by tens of percent over minutes; report and calibration slow
# down together, so their ratio is steady where raw wall time is not.
CALIBRATION = """\
from fractions import Fraction
s = Fraction(0)
for i in range(1, 25000):
    s += Fraction(1, i % 97 + 1)
d = {}
for i in range(120000):
    d[i % 1000] = d.get(i % 1000, 0) + i
"""
# Every timing is reported in reference seconds: wall time scaled to a
# machine on which one calibration run takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.15

END_TO_END = {
    "report_s_p50": "s",
    "report_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# The set-up probe: start Python, import the CLI, load the workload's
# inputs through the loader the CLI itself uses, exit.
PROBE = """\
import json, sys
import privtrace.cli
from privtrace.privacy import Mechanism
from privtrace.scenario import load_scenario
kind, path = sys.argv[1:3]
if kind == "scenario":
    load_scenario(path)
else:
    with open(path) as f:
        doc = json.load(f)
    Mechanism.from_rows(doc.get("name", "mechanism"), doc["probs"],
                        outputs=doc.get("outputs"))
"""


class Checker:
    """Checks each report of one input: the oracle, byte-identical bodies
    across repeats, and for the default seed the recorded body digest."""

    def __init__(self, case: gen.Case, seed: int) -> None:
        self.case = case
        self.first: str | None = None
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text()).get(case.workload)

    def __call__(self, code: int, stdout: str, stderr: str) -> list[str]:
        problems = oracle.check(self.case.workload, self.case.truth, code, stdout, stderr)
        body = oracle.body_of(stdout)
        if self.reference is not None and oracle.digest(body) != self.reference:
            problems.append("body digest differs from the recorded reference")
        if self.first is None:
            self.first = body
        elif body != self.first:
            problems.append("body differs from the first report of this input")
        return problems


class Launcher:
    """The small spawner process (launcher.py) that times each child."""

    def __init__(self, env: dict, tmp: Path) -> None:
        self.out, self.err = tmp / "stdout.txt", tmp / "stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )

    def run(self, argv: list[str]) -> tuple[dict, str, str]:
        request = {"argv": argv, "stdout": str(self.out), "stderr": str(self.err),
                   "timeout": REPORT_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        return json.loads(line), self.out.read_text(), self.err.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REPORT_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND values above it (the largest when there
    are fewer), and its percentile rank."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(case: gen.Case, seconds: float, check: Checker, tmp: Path) -> dict:
    launcher = Launcher(child_env(), tmp)
    problems: list[str] = []
    try:
        probe = [sys.executable, "-c", PROBE, *case.loader]
        report = [sys.executable, "-m", "privtrace.cli", *case.argv]
        # Warm-up, not timed: compiles bytecode and fills the page cache.
        for argv in (probe, report):
            reply, _, err = launcher.run(argv)
            if reply["exit"] != 0:
                problems.append(f"warm-up exited {reply['exit']}: {err.strip()[-300:]}")
        calibration = [sys.executable, "-c", CALIBRATION]

        def timed(argv):
            """Run argv, then the calibration; the wall time of argv in
            reference seconds, the raw reply and output."""
            reply, out, err = launcher.run(argv)
            calib, _, calib_err = launcher.run(calibration)
            if calib["exit"] != 0:
                problems.append(f"calibration exited {calib['exit']}: {calib_err[-300:]}")
            calibs.append(calib["wall_s"])
            return reply["wall_s"] * CALIBRATION_REF_S / calib["wall_s"], reply, out, err

        # Set-up probes are spread over the run, so that they see the same
        # machine conditions as the reports.
        setup, walls, raw, rss, calibs = [], [], [], [], []
        failed = 0

        def probe_once():
            wall, reply, _, err = timed(probe)
            setup.append(wall)
            if reply["exit"] != 0:
                problems.append(f"set-up probe exited {reply['exit']}: {err.strip()[-300:]}")

        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            if (len(setup) < SETUP_REPEATS
                    and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS):
                probe_once()
            wall, reply, out, err = timed(report)
            found = check(reply["exit"], out, err)
            if reply["timed_out"]:
                found.append(f"timed out after {REPORT_TIMEOUT_S} s")
            failed += bool(found)
            problems += found
            walls.append(wall)
            raw.append(reply["wall_s"])
            rss.append(reply["maxrss_kb"])
        while len(setup) < SETUP_REPEATS:
            probe_once()
    finally:
        launcher.close()
    tail_s, tail_pct = tail(walls)
    return {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "setup_ok": not any(p.startswith(("warm-up", "set-up", "calibration"))
                            for p in problems),
        "metrics": {
            "report_s_p50": statistics.median(walls),
            "report_s_tail": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss) / 1024,
        },
        "units": END_TO_END,
        "notes": [
            f"times are reference seconds: wall x {CALIBRATION_REF_S} / calibration wall",
            f"raw report wall: median {statistics.median(raw):.4f} s, "
            f"calibration wall: median {statistics.median(calibs):.4f} s",
            f"report_s_tail is p{tail_pct:.1f} of {len(walls)} reports",
            f"setup_s is the median of {SETUP_REPEATS} set-up probes",
            f"failed_frac = {failed / len(walls):.4g} ({failed}/{len(walls)})",
        ],
    }


def per_layer(case: gen.Case, seconds: float, check: Checker, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing

    result = tracing.traced_run(case.argv, seconds, check)
    result["tracer"].write_spans(spans_path)
    result["units"] = tracing.PER_LAYER
    result["notes"] = [f"spans written to {spans_path.relative_to(ROOT)}"]
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        case = gen.generate(workload, tmp / "inputs", seed)
        check = Checker(case, seed)
        if trace:
            result = per_layer(case, seconds, check,
                               WORK / f"spans-{workload}-seed{seed}.jsonl")
        else:
            result = end_to_end(case, seconds, check, tmp)
        if check.first is not None:
            result["notes"].append(f"body sha256 = {oracle.digest(check.first)}")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="privtrace benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "privtrace" / "cli.py").is_file():
        print(f"error: no privtrace sources under {SRC}", file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result.get("setup_ok", True)
        print(f"## {workload} seed {args.seed} trace {args.trace}: "
              f"{result['attempted']} reports, {result['failed']} failed")
        for name, unit in result["units"].items():
            print(f"{name} = {result['metrics'][name]:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": result["metrics"][name], "unit": unit}
        for note in result["notes"]:
            print(note)
        for problem in sorted(set(result["problems"]))[:20]:
            print(f"FAILED: {problem}", file=sys.stderr)
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
