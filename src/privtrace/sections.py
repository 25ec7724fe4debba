"""The report section that measures rows, the pairwise metrics, and what
arms the scripted runs' oracle: the `--secret` rows and the `--epsilon`
bound.  Only a `metric` section, `--secret` or `--epsilon` loads this
module, so a report on attack transcripts alone does not compile it."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .records import InputError, parse_fraction
from .report import Report, parse_mode

if TYPE_CHECKING:
    from .scenario import Scenario


def metric_section(scenario: Scenario, report: Report, table_name: str, pairs,
                   modes) -> bool:
    """Pairwise distances; returns False when some pair is uncomparable."""
    from .metrics import d_vector, hamming

    table = scenario.table(table_name)
    normalizer = table.normalizers
    all_defined = True
    for a, b in pairs:
        ra, rb = table.row(a), table.row(b)
        dh = hamming(ra, rb)
        for mode_name in modes:
            mode = parse_mode(mode_name)
            report.add(f"## metric {table_name} {a} {b} ({mode.value})")
            prefix = f"metric/{table_name}/{a}/{b}/{mode.value}"
            try:
                vec = d_vector(ra, rb, mode, normalizer=normalizer)
            except InputError:
                all_defined = False
                report.add("uncomparable pair")
                report.add()
                continue
            report.put(f"{prefix}/d_vector", vec,
                       f"d_vector = ({', '.join(map(str, vec))})")
            # rho of two single rows is their d_bar, the sum of d_vector
            total = sum(vec, Fraction(0))
            report.put(f"{prefix}/d_bar", total, f"d_bar = {total}")
            report.put(f"{prefix}/rho", total, f"rho = {total}")
            report.put(f"{prefix}/d_h", dh, f"d_h = {dh}")
            report.add()
    return all_defined


def resolve_secret(scenario: Scenario, refs: list[str]) -> list:
    """Resolve `table:line` references into copies of their tables holding
    just those rows, so that each secret keeps its table's normalizers."""
    rows: dict[str, dict] = {}
    for ref in refs:
        table_name, _, line = ref.partition(":")
        if not line:
            raise InputError(f"secret reference {ref!r} is not table:line")
        rows.setdefault(table_name, {})[line] = scenario.table(table_name).row(line)
    return [scenario.table(name).replace(rows=tuple(by_line.values()))
            for name, by_line in rows.items()]


def oracle_bound(text: str, secret: list[str]) -> Fraction:
    """The oracle's bound on rho, a distance: an exact non-negative
    fraction or decimal, so a state at exactly the typed bound is caught.
    It measures the `secret` rows, so at least one must be given."""
    try:
        bound = parse_fraction(text.strip().replace(" ", ""))
    except InputError as exc:
        raise InputError(f"--epsilon {text!r}: {exc}; the oracle bounds rho, a "
                         "distance, not an ln(...) epsilon") from None
    if bound < 0:
        raise InputError(f"--epsilon {text!r} is negative")
    if not secret:
        raise InputError("--epsilon needs at least one --secret TABLE:LINE")
    return bound
