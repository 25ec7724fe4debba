"""Line census: every executable line of `src/privtrace` must run under
the tier-1 tests, or be listed in `tests/line_census_allow.txt` with the
reason it cannot.

    python tests/line_census.py

The script runs tier-1 (`python -m pytest -q`, from the repository root)
with a line tracer in every Python process it starts: a generated
`sitecustomize.py`, first on `PYTHONPATH`, installs `sys.settrace` and
`threading.settrace` before any test code runs, so subprocess tests are
traced too.  Each process writes the lines it ran when it exits.  The
executable lines of a module are the line numbers its compiled code
objects report through `co_lines()`.

An allowlist entry is one line, `module | stripped source text | reason`.
It is keyed by the source text, not by the line number, so that edits
elsewhere in the module do not move it.  The census exits 1 on a line that
never ran and is not listed, on a listed line that ran, and on a listed
line whose text no longer occurs in its module: the list can only shrink.
It exits 1 also when the traced tests fail.  Tracing makes tier-1 about
four times slower, which is why the census is not itself a tier-1 test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "privtrace"
ALLOW = Path(__file__).resolve().parent / "line_census_allow.txt"

# Run in every traced process before `site` hands over to the program.
# Only frames whose code lives in the package get a local tracer; the
# lines they run are written, one JSON file per process, at exit.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_hits = {{}}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.setdefault(name, set())
    return _local


def _dump():
    import json
    sys.settrace(None)
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as out:
        json.dump({{k: sorted(v) for k, v in _hits.items()}}, out)


sys.settrace(_global)
threading.settrace(_global)
atexit.register(_dump)
'''


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from `path` runs."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 (or None) marks instructions that belong to no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_allowlist() -> list[tuple[str, str, str]]:
    """(module, stripped source text, reason) for each entry; `#` lines
    and blank lines are comments."""
    entries = []
    for raw in ALLOW.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        module, _, rest = raw.partition(" | ")
        text, _, reason = rest.rpartition(" | ")
        entries.append((module.strip(), text.strip(), reason.strip()))
    return entries


def module_lines(module: str) -> list[str]:
    return (PACKAGE / module).read_text(encoding="utf-8").splitlines()


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 traced; the pytest exit code and the lines run, by file."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        prefix = str(PACKAGE) + os.sep
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(prefix=prefix, out=str(out)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site), str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q"],
                              cwd=ROOT, env=env)
        hits: dict[str, set[int]] = {}
        dumps = list(out.iterdir())
        for dump in dumps:
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)
        print(f"line census: {len(dumps)} traced processes")
        return done.returncode, hits


def census(hits: dict[str, set[int]], entries: list[tuple[str, str, str]]) -> list[str]:
    """The problems, given the lines run by file and the allowlist entries:
    unreached lines not listed, listed lines that ran or are gone."""
    unreached: Counter[tuple[str, str]] = Counter()
    where: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = module_lines(path.name)
        ran = hits.get(str(path), set())
        for line in sorted(executable_lines(path) - ran):
            key = (path.name, text[line - 1].strip())
            unreached[key] += 1
            where.setdefault(key, []).append(line)
    listed = Counter((module, text) for module, text, _ in entries)
    problems = []
    for key in sorted(unreached.keys() | listed.keys()):
        module, text = key
        extra = unreached[key] - listed[key]
        if extra > 0:
            at = ", ".join(f"{module}:{n}" for n in where[key])
            problems.append(f"never ran, not listed ({at}): {text}")
        elif extra < 0:
            present = (PACKAGE / module).is_file() and \
                text in {s.strip() for s in module_lines(module)}
            state = "ran" if present else "no longer exists"
            problems.append(f"listed but {state}: {module} | {text}")
    return problems


def main() -> int:
    code, hits = traced_run()
    entries = read_allowlist()
    problems = census(hits, entries)
    for problem in problems:
        print(problem)
    if code != 0:
        print(f"line census: the traced tests exited {code}")
        return 1
    if problems:
        return 1
    print(f"line census: every unreached line is listed ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
