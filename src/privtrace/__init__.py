"""Exact-arithmetic privacy analysis over anonymized tabular data:
tagged probabilistic transition systems, value-wise mixed-type metrics,
epsilon-indistinguishability bounds, and attack thresholds."""

from .values import (
    Atom,
    AtomSet,
    ColumnClass,
    IntInterval,
    Number,
    STAR,
    TaxonomyTree,
    Taxon,
)
from .schema import (
    ColumnSchema,
    Correspondence,
    DataTable,
    PrivacyPolicy,
    Row,
    SchemaBundle,
    TOP,
    TuplePattern,
    load_schema,
    load_table,
    match_pattern,
    parse_pattern,
    type_compatible,
)
from .metrics import (
    IntervalMeasureMode,
    d_bar,
    d_eucl,
    d_nom,
    d_num,
    d_vector,
    d_wp,
    hamming,
    rho,
)
from .dltts import (
    DELTA,
    Dltts,
    DlttsBuilder,
    Label,
    OracleVerdict,
    Run,
    check_consistency,
    epsilon_equivalent_labels,
    parse_dltts,
    reach_stop,
    render_dltts,
    saturate,
    validate,
)
from .privacy import (
    EpsilonResult,
    HammingAdjacency,
    Mechanism,
    RhoAdjacency,
    TableAdjacency,
    build_rr,
    is_eps_indistinguishable,
    min_dp_epsilon,
    min_eps_hamming_indist,
    min_eps_rho_indist,
    min_indist_epsilon,
    min_ldp_epsilon,
    parse_epsilon,
)
from .attack import (
    AttackDltts,
    AttackerProfile,
    Comparison,
    apply_strategy,
    attack_success_points,
    build_attack_dltts,
    derive_baseline_profile,
    load_attack_dltts,
    max_pr,
    multiset_compare,
    pr_access,
    threshold_report,
)
from .dotexport import export_dot

__version__ = "0.1.0"
