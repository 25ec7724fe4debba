"""Exact-arithmetic privacy analysis over anonymized tabular data:
tagged probabilistic transition systems, value-wise mixed-type metrics,
epsilon-indistinguishability bounds, and attack thresholds.

The public names below load their module on first access (PEP 562), so
`import privtrace` imports no submodule."""

import importlib

__version__ = "0.1.0"

_LAZY = {
    name: module
    for module, names in {
        "values": "Atom AtomSet ColumnClass IntInterval IntervalMeasureMode Number STAR "
        "TaxonomyTree Taxon",
        "schema": "ColumnSchema DataTable PrivacyPolicy Row SchemaBundle TOP "
        "TuplePattern load_schema load_table parse_pattern",
        "metrics": "d_bar d_eucl d_nom d_num d_vector d_wp hamming rho",
        "lts": "DELTA Dltts Label",
        "transcript": "parse_dltts",
        "dltts": "DlttsBuilder OracleVerdict Run check_consistency reach_stop saturate "
        "validate",
        "privacy": "EpsilonResult HammingAdjacency Mechanism min_dp_epsilon "
        "min_ldp_epsilon",
        "indist": "RhoAdjacency epsilon_equivalent_labels is_eps_indistinguishable "
        "min_eps_hamming_indist min_eps_rho_indist min_indist_epsilon parse_epsilon",
        "attack": "AttackDltts apply_strategy load_attack_dltts max_pr threshold_report",
        "profiles": "AttackerProfile build_attack_dltts",
        "dotexport": "export_dot",
    }.items()
    for name in names.split()
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
