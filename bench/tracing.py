"""The traced run: per-layer time and work counts, measured from outside.

`Tracer.installed()` wraps the public functions of each privtrace layer in
every module namespace that bound them (`rho`, for one, is imported by
name into `dltts`, `privacy` and `scenario`), and restores the originals on
exit.  Timed functions get a span (name, start, end, parent span,
invocation id) kept in memory; hot per-item functions only get a call
count, because a span per call would distort the time they take.
`values` is not wrapped at all (one call per cell) and `dotexport` is on no
workload's path.

A span's self time is its duration minus the time its child spans cover.
Every metric is computed per invocation and reported as the median over
the invocations of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import time
import traceback
from collections import Counter
from math import comb

MODULES = ("values", "schema", "metrics", "dltts", "privacy", "attack",
           "scenario", "cli", "dotexport")

# (module, qualified name, timed).  Untimed entries are only counted.
WRAPPED = (
    ("cli", "cli_main", True),
    ("scenario", "load_scenario", True),
    ("scenario", "run_scenario", True),
    ("scenario", "build_run", True),
    ("scenario", "attack_section", True),
    ("scenario", "strategy_section", True),
    ("schema", "load_table", True),
    ("schema", "parse_pattern", False),
    ("dltts", "saturate", True),
    ("dltts", "DlttsBuilder.add_transition", True),
    ("dltts", "DlttsBuilder.oracle_step", True),
    ("dltts", "check_consistency", True),
    ("dltts", "reach_stop", True),
    ("dltts", "validate", True),
    ("dltts", "parse_dltts", True),
    ("metrics", "rho", True),
    ("metrics", "d_vector", False),
    ("metrics", "hamming", False),
    ("privacy", "min_ldp_epsilon", True),
    ("privacy", "min_dp_epsilon", True),
    ("privacy", "Mechanism.from_rows", True),
    ("privacy", "Mechanism.event_prob", False),
    ("attack", "load_attack_dltts", True),
    ("attack", "max_pr", True),
    ("attack", "threshold_report", True),
    ("attack", "apply_strategy", True),
    ("attack", "AttackDltts.singleton_nodes", False),
)

# Per-layer metrics: name -> unit.  The order is the order they print in.
PER_LAYER = {
    "cli.cli_main.busy_s": "s",
    "cli.self_s": "s",
    "scenario.load_scenario.busy_s": "s",
    "scenario.run_scenario.self_s": "s",
    "scenario.build_run.self_s": "s",
    "scenario.attack_section.self_s": "s",
    "scenario.strategy_section.self_s": "s",
    "schema.load_table.busy_s": "s",
    "schema.load_table.rows": "count",
    "schema.parse_pattern.calls": "count",
    "dltts.saturate.busy_s": "s",
    "dltts.saturate.calls": "count",
    "dltts.saturate.tuples_in": "count",
    "dltts.saturate.tuples_out": "count",
    "dltts.saturate.closed_input_frac": "ratio",
    "dltts.saturate.share": "ratio",
    "dltts.DlttsBuilder.add_transition.self_s": "s",
    "dltts.DlttsBuilder.oracle_step.self_s": "s",
    "dltts.check_consistency.busy_s": "s",
    "dltts.reach_stop.busy_s": "s",
    "dltts.validate.busy_s": "s",
    "dltts.parse_dltts.busy_s": "s",
    "dltts.parse_dltts.transitions": "count",
    "metrics.rho.busy_s": "s",
    "metrics.rho.calls": "count",
    "metrics.rho.pairs": "count",
    "metrics.d_vector.calls": "count",
    "metrics.hamming.calls": "count",
    "privacy.min_ldp_epsilon.busy_s": "s",
    "privacy.min_dp_epsilon.busy_s": "s",
    "privacy.scan.share": "ratio",
    "privacy.Mechanism.event_prob.calls": "count",
    "privacy.input_pairs": "count",
    "privacy.Mechanism.from_rows.busy_s": "s",
    "attack.load_attack_dltts.busy_s": "s",
    "attack.max_pr.busy_s": "s",
    "attack.max_pr.calls": "count",
    "attack.max_pr.distinct_frac": "ratio",
    "attack.max_pr.share": "ratio",
    "attack.threshold_report.busy_s": "s",
    "attack.apply_strategy.self_s": "s",
    "attack.singleton_nodes": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters for the invocations run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: list[Counter] = []
        self.keys: list[set] = []  # distinct (system, line) per invocation
        self._stack: list[int] = []
        self._closed = None  # the parent's saturated tag inside add_transition
        self._patches: list[tuple] = []

    def new_invocation(self) -> None:
        self.counts.append(Counter())
        self.keys.append(set())

    # -- wrapping ----------------------------------------------------------

    def _before(self, name: str, args: tuple) -> tuple:
        count = self.counts[-1]
        if name == "metrics.rho":
            args = (list(args[0]), list(args[1])) + args[2:]
            count["metrics.rho.pairs"] += len(args[0]) * len(args[1])
        elif name == "dltts.saturate":
            count["dltts.saturate.tuples_in"] += len(args[0])
            if self._closed is not None:
                count["dltts.saturate.closed_in"] += len(args[0] & self._closed)
        elif name == "dltts.DlttsBuilder.add_transition":
            self._closed = args[0].saturated.get(args[1])
        elif name in ("privacy.min_ldp_epsilon", "privacy.min_dp_epsilon"):
            count["privacy.input_pairs"] += comb(len(args[0].inputs), 2)
        elif name == "attack.max_pr":
            self.keys[-1].add((args[0].name, args[1]))
        return args

    def _after(self, name: str, result) -> None:
        count = self.counts[-1]
        if name == "dltts.saturate":
            count["dltts.saturate.tuples_out"] += len(result)
        elif name == "dltts.DlttsBuilder.add_transition":
            self._closed = None
        elif name == "schema.load_table":
            count["schema.load_table.rows"] += len(result.rows)
        elif name == "dltts.parse_dltts":
            count["dltts.parse_dltts.transitions"] += len(result.transitions)

    def _wrap(self, name: str, fn, timed: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if not timed:
            def counted(*args, **kwargs):
                self.counts[-1][name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            self.counts[-1][name + ".calls"] += 1
            args = self._before(name, args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.counts) - 1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self._after(name, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        mods = [importlib.import_module("privtrace")] + [
            importlib.import_module(f"privtrace.{m}") for m in MODULES
        ]
        try:
            for module, qualname, timed in WRAPPED:
                name = f"{module}.{qualname}"
                owner = importlib.import_module(f"privtrace.{module}")
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(name, original.__func__, timed))
                    else:
                        wrapped = self._wrap(name, original, timed)
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(owner, qualname)
                wrapped = self._wrap(name, original, timed)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
            yield self
        finally:
            while self._patches:
                obj, attr, original = self._patches.pop()
                setattr(obj, attr, original)

    # -- roll-up -----------------------------------------------------------

    def per_invocation(self) -> list[dict[str, float]]:
        """Busy, self and count figures for each invocation."""
        busy = [Counter() for _ in self.counts]
        own = [Counter() for _ in self.counts]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inv in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, inv) in enumerate(self.spans):
            busy[inv][name] += end - start
            own[inv][name] += end - start - child[i]
        rows = []
        for inv, count in enumerate(self.counts):
            b, s = busy[inv], own[inv]
            total = b["cli.cli_main"]
            row = {}
            for name in PER_LAYER:
                base, _, kind = name.rpartition(".")
                row[name] = {"busy_s": b, "self_s": s}.get(kind, count)[
                    base if kind in ("busy_s", "self_s") else name]
            tuples_in = count["dltts.saturate.tuples_in"]
            max_pr_calls = count["attack.max_pr.calls"]
            row.update({
                "cli.self_s": s["cli.cli_main"],
                "dltts.saturate.closed_input_frac":
                    count["dltts.saturate.closed_in"] / tuples_in if tuples_in else 0.0,
                "dltts.saturate.share": b["dltts.saturate"] / total,
                "privacy.scan.share":
                    (b["privacy.min_ldp_epsilon"] + b["privacy.min_dp_epsilon"]) / total,
                "attack.max_pr.distinct_frac":
                    len(self.keys[inv]) / max_pr_calls if max_pr_calls else 0.0,
                "attack.max_pr.share": b["attack.max_pr"] / total,
                "attack.singleton_nodes": count["attack.AttackDltts.singleton_nodes.calls"],
            })
            rows.append(row)
        return rows

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "invocation"]) + "\n")
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: exit code, stdout, stderr."""
    cli = importlib.import_module("privtrace.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.cli_main(argv)
        except Exception:  # a crash is a failed report, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def traced_run(argv: list[str], seconds: float, check) -> dict:
    """Alternate untraced and traced in-process invocations for `seconds`.

    `check(code, stdout, stderr)` returns the problems of one report.  A
    traced report whose body differs from the untraced one of the same pair
    also fails.  Returns the tracer, timings and failure counts.
    """
    tracer = Tracer()
    call_cli(argv)  # warm-up: imports and first-call costs stay out of the figures
    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        code, out, err = call_cli(argv)
        plain.append(time.perf_counter() - t0)
        with tracer.installed():
            tracer.new_invocation()
            t0 = time.perf_counter()
            tcode, tout, terr = call_cli(argv)
            traced.append(time.perf_counter() - t0)
        found = check(code, out, err)
        traced_found = check(tcode, tout, terr)
        if tout != out:
            traced_found.append("wrapping changed the report body")
        for f in (found, traced_found):
            attempted += 1
            failed += bool(f)
            problems += f
    rows = tracer.per_invocation()
    metrics = {
        name: statistics.median(row[name] for row in rows)
        for name in PER_LAYER if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {"tracer": tracer, "metrics": metrics, "attempted": attempted,
            "failed": failed, "problems": problems}
