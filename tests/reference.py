"""Reference implementations the tests check the library against: the
oracle's whole-tag ruling, the multiset order on priority keys, and the
two-coin randomized response mechanism."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from privtrace.attack import _priority_key
from privtrace.dltts import (
    OracleVerdict,
    Tag,
    _is_knowledge,
    _secret_rho,
    check_consistency,
)
from privtrace.privacy import Mechanism
from privtrace.schema import DataTable, PrivacyPolicy
from privtrace.values import IntervalMeasureMode, TaxonomyTree


def oracle_verdict(
    saturated_tag: Tag,
    policy: PrivacyPolicy,
    secret_set: Iterable[Sequence | DataTable] | None = None,
    epsilon: Fraction | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
) -> OracleVerdict:
    """The oracle's ruling on a whole saturated tag: the policy check first,
    then rho <= epsilon between its knowledge tuples and the secrets, armed
    only when both are given.  `DlttsBuilder.oracle_step` rules on what a
    state adds to its parent; this rules on the whole tag."""
    if not check_consistency(saturated_tag, policy):
        return OracleVerdict.VIOLATION
    if epsilon is not None and secret_set is not None:
        knowledge = [p.cells for p in saturated_tag if _is_knowledge(p)]
        r = _secret_rho(knowledge, secret_set, mode, taxonomies)
        if r is not None and r <= epsilon:
            return OracleVerdict.EPSILON_VIOLATION
    return OracleVerdict.CONTINUE


class Comparison(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"


def multiset_compare(
    m1: Iterable[Fraction], m2: Iterable[Fraction]
) -> Comparison:
    """The order the priority pass puts on two transitions' branch
    probabilities, through the key it compares (`attack._priority_key`):
    descending-sorted lexicographic, a proper prefix smaller.  EQUAL iff
    the multisets are identical."""
    k1, k2 = _priority_key(m1), _priority_key(m2)
    if k1 == k2:
        return Comparison.EQUAL
    return Comparison.GREATER if k1 > k2 else Comparison.LESS


def randomized_response() -> tuple[Mechanism, Mechanism]:
    """The two-coin randomized response mechanism, as (full, marginal).

    `full` maps the 8 explicit instances (X, F1, F2) deterministically:
    output X if F1=H, True if F1=T and F2=H, else False.  `marginal` is the
    coin-marginalized view (X alone, output probabilities 3/4 and 1/4) that
    the privacy bounds are stated over."""
    full_table = {}
    for x in ("True", "False"):
        for f1 in ("H", "T"):
            for f2 in ("H", "T"):
                out = x if f1 == "H" else "True" if f2 == "H" else "False"
                full_table[((x, f1, f2), out)] = Fraction(1)
    full = Mechanism("rr-instances", tuple(v for v, _ in full_table),
                     ("True", "False"), full_table)
    marginal = Mechanism.from_rows(
        "rr",
        {
            "True": {"True": Fraction(3, 4), "False": Fraction(1, 4)},
            "False": {"True": Fraction(1, 4), "False": Fraction(3, 4)},
        },
        outputs=("True", "False"),
    )
    return full, marginal
