"""Mechanisms as finite probabilistic maps, and their LDP and DP epsilons.

Every probability is an exact Fraction.  Epsilon values are reported in the
exact form scale*ln(ratio) (both rationals) whenever they arise from rational
probabilities; `indist` orders them.

Scanning never raises on zero-probability asymmetries: they yield a
distinguished "unbounded" result value.  LDP, and Hamming DP over named
inputs, count only pairs at distance 1, so they take one pass per output
(O(inputs * outputs)); other adjacencies scan the input pairs in `indist`.
This module imports `indist` only for that scan and for a scale past the
float range, the metric and cell layers only in the functions that
measure tuples, and never the schema layer.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .records import InputError, Names, Record, Required, parse_fraction, shaped


# The shape of a mechanism document, in a scenario or a file of its own:
# each probability is an exact number that `from_rows` reads.
MECHANISM = {"name": str, "outputs": [str], "probs": Required(Names(Names(object)))}


class Mechanism(Record):
    """A finite map from input instances to exact output distributions."""

    name: str
    inputs: tuple
    outputs: tuple
    table: Mapping[tuple, Fraction]

    def _check(self) -> None:
        name, table = self.name, self.table
        for v in self.inputs:
            total = Fraction(0)
            for o in self.outputs:
                p = table.get((v, o), Fraction(0))
                if p < 0 or p > 1:
                    raise InputError(f"{name}: probability {p} out of range")
                total += p
            if total != 1:
                raise InputError(f"{name}: input {v!r} distributes {total}, not 1")

    @classmethod
    def from_rows(cls, name: str, rows: Mapping, outputs: Sequence | None = None):
        """Build from {input: {output: prob}}; probs accept Fraction strings.
        Outputs keep first-seen order, declared `outputs` first."""
        table = {}
        outs = dict.fromkeys(outputs or ())
        for v, dist in rows.items():
            for o, p in dist.items():
                outs.setdefault(o)
                try:
                    table[(v, o)] = parse_fraction(p)
                except InputError as exc:
                    where = f"mechanism {name!r} probs.{v}.{o}"
                    raise InputError(f"{where}: {exc}") from None
        return cls(name, tuple(rows), tuple(outs), table)

    @classmethod
    def from_doc(cls, name: str, doc):
        """Build from a MECHANISM document, named by its `name` field, else
        `name`."""
        shaped(doc, MECHANISM, f"mechanism {name!r}")
        return cls.from_rows(doc.get("name", name), doc["probs"], doc.get("outputs"))

    def prob(self, v, o) -> Fraction:
        return self.table.get((v, o), Fraction(0))

    def support(self, v) -> tuple:
        return tuple(o for o in self.outputs if self.prob(v, o) > 0)

    def event_prob(self, v, event: Iterable) -> Fraction:
        return sum((self.prob(v, o) for o in event), Fraction(0))


class EpsilonResult(Record):
    """An epsilon bound: value = scale * ln(ratio), exact where possible.

    `unbounded` marks a zero-probability asymmetry (no finite epsilon);
    `both_zero` flags the 0-vs-0 convention (epsilon 0 by agreement).
    """

    scale: Fraction | None = None
    ratio: Fraction | None = None
    unbounded: bool = False
    both_zero: bool = False
    witness: tuple | None = None

    @property
    def value(self) -> float:
        if self.unbounded:
            return math.inf
        if self.ratio is None or self.ratio == 1 or self.scale == 0:
            return 0.0
        if self.scale > sys.float_info.max:  # past the float range: bound it exactly
            from .indist import _bounds

            lo = _bounds(self.scale, self.ratio, 20)[0]
            return float(lo) if lo <= sys.float_info.max else math.inf
        return float(self.scale) * (
            math.log(self.ratio.numerator) - math.log(self.ratio.denominator)
        )

    def exact_str(self) -> str:
        if self.unbounded:
            return "unbounded"
        if self.ratio is None:
            return "0"
        ln = f"ln({self.ratio.numerator}/{self.ratio.denominator})"
        if self.scale == 1:
            return ln
        return f"({self.scale.numerator}/{self.scale.denominator})*{ln}"

    def __str__(self) -> str:
        if self.unbounded:
            return "unbounded"
        return f"{self.exact_str()} ≈ {self.value:.12g}"

    def witness_str(self) -> str:
        if self.witness is None or self.witness[0] is None:
            return "none"
        parts = [repr(w) if isinstance(w, str) else str(w) for w in self.witness]
        return "(" + ", ".join(parts) + ")"


def _unit_scan(m: Mechanism, shared: bool) -> EpsilonResult:
    """What `_pair_scan` returns when every counted pair is at distance 1,
    in O(inputs * outputs).  The counted pairs are every pair, or, when
    `shared`, those sharing a positive-probability output.

    The result is unbounded iff some counted pair has different supports;
    the first such pair is, at some output o, the first input positive at
    o paired with the first later one whose support differs.  Otherwise
    the inputs positive at o are counted against each other (supports
    that meet are equal), so o's best ratio is max p / min p over them,
    and the pair scan's first (pair, output) reaching the overall best
    pairs the first input at either extreme with the first at the other.
    """
    rows = [[m.prob(v, o) for o in m.outputs] for v in m.inputs]
    kinds: dict[tuple, int] = {}
    kind = [kinds.setdefault(tuple(p > 0 for p in row), len(kinds)) for row in rows]
    columns = range(len(m.outputs))
    positive = [[i for i, row in enumerate(rows) if row[k] > 0] for k in columns]
    groups = positive if shared else [range(len(rows))]
    first = min(
        ((g[0], j) for g in groups for j in g if kind[j] != kind[g[0]]), default=None
    )
    if first is not None:
        i, j = first
        k = next(k for k in columns if (rows[i][k] > 0) != (rows[j][k] > 0))
        pos, zero = (i, j) if rows[i][k] > 0 else (j, i)
        return EpsilonResult(
            unbounded=True, witness=(m.inputs[pos], m.inputs[zero], (m.outputs[k],))
        )
    found = []  # (i, j, k, ratio, index at max, index at min)
    for k, at in enumerate(positive):
        if not at:
            continue
        col = [(rows[i][k], i) for i in at]
        # the first index at each extreme: max keeps the first of equals
        (lo, a), (hi, b) = min(col), max(col, key=lambda c: c[0])
        if hi != lo:
            found.append((min(a, b), max(a, b), k, hi / lo, b, a))
    if not found:
        return EpsilonResult(
            scale=Fraction(1), ratio=Fraction(1), witness=(None, None, ())
        )
    top = max(f[3] for f in found)
    _, _, k, ratio, b, a = min(f for f in found if f[3] == top)
    return EpsilonResult(
        scale=Fraction(1),
        ratio=ratio,
        witness=(m.inputs[b], m.inputs[a], (m.outputs[k],)),
    )


def min_ldp_epsilon(m: Mechanism) -> EpsilonResult:
    """Minimal epsilon for the local-privacy bound over every input pair
    sharing a positive-probability output and every output event."""
    return _unit_scan(m, shared=True)


def _as_cells(x) -> tuple:
    """A table row's cells, a tuple of cells, or an opaque name as one atom."""
    if isinstance(x, tuple):
        return x
    from .values import Atom

    cells = getattr(x, "cells", None)
    return (Atom(str(x)),) if cells is None else cells


class HammingAdjacency(Record):
    """Generalized Hamming count; opaque atoms count as 1-tuples."""

    def distance(self, a, b) -> Fraction | None:
        from .metrics import hamming

        d = hamming(_as_cells(a), _as_cells(b))
        return None if d is None else Fraction(d)


def min_dp_epsilon(m: Mechanism, adjacency) -> EpsilonResult:
    """Minimal epsilon with Prob[M(D) in S] <= e^(eps*dist(D,D')) * Prob[M(D') in S]
    for every unordered input pair and every output event.  `adjacency`
    has a `distance(a, b)`: a symmetric nonnegative Fraction, or None for
    an undefined (uncomparable) pair.  Hamming over
    non-empty names puts every pair at distance 1 (an empty name is no
    atom, and raises when the pair scan reaches it)."""
    if isinstance(adjacency, HammingAdjacency) and all(
        type(v) is str and v for v in m.inputs
    ):
        return _unit_scan(m, shared=False)
    from .indist import _pair_scan

    def distance(v, v2) -> Fraction:
        d = adjacency.distance(v, v2)
        if d is None:
            raise InputError(f"adjacency undefined on pair ({v!r}, {v2!r})")
        return d

    return _pair_scan(m, distance)
