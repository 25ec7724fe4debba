"""Correctness checks for one report, from the generator's planted truth.

Nothing here imports `privtrace`: each expected value is recomputed from
what the generator wrote, by a method the program does not use.

  trace-saturate   the violation and epsilon-violation states, and every
                   Stop run with its exact probability, are the planted ones.
  attack-strategy  each Max_pr and each OFF set equals the one recomputed
                   from the generated trees: a node's path-probability
                   product against the baseline's per-line maximum.
  dp-audit         the LDP and DP epsilons are ln(R) with R the pointwise
                   single-output maximum ratio, which for pure epsilon-DP
                   equals the maximum over all events (Dwork & Roth 2014,
                   section 2.3), and each witness event attains R.
"""

from __future__ import annotations

import ast
import hashlib
import re
from fractions import Fraction

HEADER = re.compile(r"# privtrace \S+\n")


def body_of(stdout: str) -> str:
    """The report without its version header line."""
    m = HEADER.match(stdout)
    return stdout[m.end():] if m else stdout


def digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()


def check(workload: str, truth: dict, exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Every way this report is wrong; empty when it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if not HEADER.match(stdout):
        problems.append("report has no version header")
    if "INVALID" in stdout:
        problems.append("report lists invalid systems")
    problems += CHECKS[workload](truth, stdout)
    return problems


def _check_trace_saturate(truth: dict, out: str) -> list[str]:
    problems = []
    verdicts = {
        m.group(1): [m.group(2), m.group(3)]
        for m in re.finditer(r"^oracle at (\S+): (\S+) \(state probability (\S+)\)$",
                             out, re.M)
    }
    if verdicts != truth["verdicts"]:
        problems.append(f"oracle verdicts {verdicts} != planted {truth['verdicts']}")
    runs = [
        [m.group(1).split(" -> "), m.group(2)]
        for m in re.finditer(r"^stop reached: (.+?)  probability (\S+)$", out, re.M)
    ]
    if runs != truth["stop_runs"]:
        problems.append(f"stop runs {runs} != planted {truth['stop_runs']}")
    return problems


def _line_max(singletons) -> dict[str, Fraction]:
    best: dict[str, Fraction] = {}
    for _node, line, pr in singletons:
        best[line] = max(best.get(line, Fraction(0)), Fraction(pr))
    return best


def expected_off(truth: dict, attacker: str) -> list[str]:
    """node:line for every attacker node that beats the baseline's best
    path product for the same line."""
    base = _line_max(truth["singletons"][truth["baseline"]])
    return sorted(
        (f"{node}:{line}" for node, line, pr in truth["singletons"][attacker]
         if Fraction(pr) > base.get(line, Fraction(0))),
        key=_natural,
    )


def _natural(text: str):
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", text)]


def _sections(out: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in out.splitlines():
        if line.startswith("## "):
            current = sections.setdefault(line[3:], [])
        elif current is not None:
            current.append(line)
    return sections


def _check_attack_strategy(truth: dict, out: str) -> list[str]:
    problems = []
    sections = _sections(out)
    for name, singles in truth["singletons"].items():
        lines = sections.get(f"attack {name}")
        if lines is None:
            problems.append(f"no attack section for {name}")
            continue
        got = {
            m.group(1): Fraction(m.group(2))
            for m in (re.match(r"Max_pr\((\w+)\) = (\S+)$", l) for l in lines) if m
        }
        if got != _line_max(singles):
            problems.append(f"Max_pr of {name} differs from the path products")
    baseline = truth["baseline"]
    for attacker in truth["attackers"]:
        lines = sections.get(f"strategy {attacker} vs {baseline} (computed baseline)")
        off = [l for l in (lines or []) if l.startswith("switched off: ")]
        if len(off) != 1:
            problems.append(f"no OFF set for {attacker}")
            continue
        text = off[0][len("switched off: "):]
        got = [] if text == "none" else text.split(", ")
        if got != expected_off(truth, attacker):
            problems.append(f"OFF set of {attacker} {got} != {expected_off(truth, attacker)}")
    return problems


def max_ratio(probs: dict) -> Fraction:
    """max over ordered input pairs and single outputs of p(v,o)/p(v',o)."""
    rows = {v: {o: Fraction(p) for o, p in dist.items()} for v, dist in probs.items()}
    return max(
        rows[v][o] / rows[w][o]
        for v in rows for w in rows if v != w for o in rows[v]
    )


def _check_dp_audit(truth: dict, out: str) -> list[str]:
    problems = []
    probs = truth["probs"]
    want = max_ratio(probs)
    for label in ("min LDP epsilon", "min DP epsilon (hamming)"):
        m = re.search(rf"^{re.escape(label)} = ln\((\d+)/(\d+)\) ", out, re.M)
        if m is None:
            problems.append(f"no exact {label}")
        elif Fraction(int(m.group(1)), int(m.group(2))) != want:
            problems.append(f"{label} ln({m.group(1)}/{m.group(2)}) != ln({want})")
    witnesses = re.findall(r"^  witness: (.+)$", out, re.M)
    if len(witnesses) != 2:
        problems.append(f"{len(witnesses)} witnesses, expected 2")
    for text in witnesses:
        try:
            v, w, event = ast.literal_eval(text)
            ratio = (sum(Fraction(probs[v][o]) for o in event)
                     / sum(Fraction(probs[w][o]) for o in event))
        except (ValueError, SyntaxError, KeyError, TypeError, ZeroDivisionError):
            problems.append(f"unreadable witness {text}")
            continue
        if ratio != want:
            problems.append(f"witness {text} has ratio {ratio}, not {want}")
    return problems


CHECKS = {
    "trace-saturate": _check_trace_saturate,
    "attack-strategy": _check_attack_strategy,
    "dp-audit": _check_dp_audit,
}
