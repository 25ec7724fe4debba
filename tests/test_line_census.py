"""The line census without tracing: each allowlist entry still names a line
of its module and says why that line never runs, and the census reports
each kind of problem.  The traced census itself, `tests/line_census.py`,
runs outside tier-1."""

from __future__ import annotations

from collections import Counter

from line_census import PACKAGE, census, executable_lines, module_lines, read_allowlist


def test_every_allowlist_entry_is_a_line_of_its_module_with_a_reason():
    entries = read_allowlist()
    assert entries
    listed = Counter((module, text) for module, text, _ in entries)
    for (module, text), n in listed.items():
        assert (PACKAGE / module).is_file(), module
        present = sum(line.strip() == text for line in module_lines(module))
        assert text and present >= n, (module, text)
    for module, text, reason in entries:
        assert reason, (module, text)


def test_the_census_names_each_kind_of_problem():
    """Fed lines run by hand, the census reports a listed line that is
    gone, a listed line that ran, and an unreached line not listed."""
    ran = {str(path): executable_lines(path) for path in PACKAGE.glob("*.py")}
    target = 'raise InputError("no table given and the scenario names none")'
    n = [line.strip() for line in module_lines("cli.py")].index(target) + 1
    ran[str(PACKAGE / "cli.py")].discard(n)
    entries = [("cli.py", "main()", "runs"), ("cli.py", "gone()", "is gone")]
    assert census(ran, entries) == [
        "listed but no longer exists: cli.py | gone()",
        "listed but ran: cli.py | main()",
        f"never ran, not listed (cli.py:{n}): {target}",
    ]
