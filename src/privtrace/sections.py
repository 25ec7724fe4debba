"""The report sections that measure rows and mechanisms: the pairwise
metrics, and the indistinguishability, distance-scaled and label
equivalence bounds of a scenario's mechanisms.  Only a `metric` command or
a scenario that asks for one of these sections loads this module, so a
report on attack transcripts or scripted runs alone does not compile it.

Each section but `metric_section` reports one entry of its list in the
scenario's `analysis`."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .records import InputError
from .report import Report, parse_mode

if TYPE_CHECKING:
    from .scenario import Scenario


def metric_section(scenario: Scenario, report: Report, table_name: str, pairs,
                   modes) -> bool:
    """Pairwise distances; returns False when some pair is uncomparable."""
    from .metrics import d_vector, hamming

    table = scenario.table(table_name)
    all_defined = True
    for a, b in pairs:
        ra, rb = table.row(a), table.row(b)
        dh = hamming(ra, rb)
        for mode_name in modes:
            mode = parse_mode(mode_name)
            report.add(f"## metric {table_name} {a} {b} ({mode.value})")
            prefix = f"metric/{table_name}/{a}/{b}/{mode.value}"
            try:
                vec = d_vector(ra, rb, mode)
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


def indist_section(scenario: Scenario, report: Report, entry: dict) -> None:
    """The least epsilon for which a mechanism's two inputs are
    indistinguishable with respect to one output."""
    from .indist import min_indist_epsilon

    m = scenario.mechanism(entry["mechanism"])
    a, b = entry["pair"]
    res = min_indist_epsilon(m, a, b, entry["alpha"])
    report.add(f"## indistinguishability {entry['mechanism']} {a} {b}")
    report.put(f"indist/{entry['mechanism']}/{a}/{b}", res,
               f"min epsilon wrt {entry['alpha']} = {res}")
    report.add()


def scaled_indist_section(scenario: Scenario, report: Report, entry: dict) -> None:
    """That epsilon scaled by the distance between the two inputs' rows:
    rho in each named mode, and Hamming when asked."""
    from .indist import min_eps_hamming_indist, min_eps_rho_indist

    m = scenario.mechanism(entry["mechanism"])
    a, b = entry["pair"]
    table = scenario.table(entry["table"])
    tuples = (table.row(a), table.row(b))
    alpha = entry["alpha"]
    report.add(f"## scaled indistinguishability {entry['mechanism']} {a} {b}")
    for mode_name in entry.get("modes", ["integer-set"]):
        rho_mode = parse_mode(mode_name)
        res = min_eps_rho_indist(m, a, b, alpha, rho_mode, tuples=tuples)
        report.put(f"scaled_indist/{entry['mechanism']}/{a}/{b}/rho/{rho_mode.value}",
                   res, f"rho-scaled min epsilon ({rho_mode.value}) = {res}")
    if entry.get("hamming"):
        res = min_eps_hamming_indist(m, a, b, alpha, tuples=tuples)
        report.put(f"scaled_indist/{entry['mechanism']}/{a}/{b}/hamming", res,
                   f"hamming-scaled min epsilon = {res}")
    report.add()


def label_equivalence_section(scenario: Scenario, report: Report, entry: dict,
                              oracle) -> None:
    """The classes of epsilon-equivalent branch labels at a state of a
    scripted run, built unarmed: the report's own run when no `oracle`
    armed it, else built again."""
    from .indist import epsilon_equivalent_labels, parse_epsilon
    from .scenario import build_run

    if entry["run"] in report.runs and oracle is None:
        dltts = report.runs[entry["run"]]  # built unarmed above
    else:
        dltts, _ = build_run(scenario, entry["run"])
    m = scenario.mechanism(entry["mechanism"])
    eps = parse_epsilon(entry["epsilon"])
    classes = epsilon_equivalent_labels(dltts, entry["state"], m, eps,
                                        alpha=entry.get("alpha"))
    report.add(f"## label equivalence {entry['run']} at {entry['state']}")
    rendered = sorted("{" + ", ".join(sorted(str(l) for l in cls)) + "}"
                      for cls in classes)
    report.put(f"label_equivalence/{entry['run']}/{entry['state']}", classes,
               f"epsilon {entry['epsilon']}: {len(classes)} class(es): "
               + "; ".join(rendered))
    report.add()
