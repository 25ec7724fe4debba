"""DOT rendering of transition systems, stable enough to diff, and the
`--dot` writer; a report loads this module only to draw."""

from __future__ import annotations

from pathlib import Path

from .lts import Dltts, natural_key
from .records import InputError


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(dltts: Dltts, *, off_edges: frozenset | None = None) -> str:
    """One node per state (Stop double-circled, rendered ⊗, and omitted when
    unreachable), edges labeled `label / probability`.  Node and edge order
    is deterministic for byte-stable output."""
    has_stop_edge = any(
        b.to == dltts.stop for t in dltts.transitions for b in t.branches
    )
    nodes = sorted(
        (
            s
            for s in dltts.states
            if s != dltts.stop or has_stop_edge or s == dltts.initial
        ),
        key=natural_key,
    )
    lines = ["digraph dltts {", "  rankdir=LR;"]
    for s in nodes:
        attrs = []
        if s == dltts.stop:
            attrs.append("shape=doublecircle")
            attrs.append('label="⊗"')
        else:
            attrs.append("shape=circle")
        if s == dltts.initial:
            attrs.append("style=bold")
        lines.append(f"  {_quote(s)} [{', '.join(attrs)}];")
    edges = []
    for t in dltts.transitions:
        for b in t.branches:
            text = str(b.label)
            label = f"{text} / {b.prob}" if text else f"{t.action} / {b.prob}"
            style = ""
            if off_edges and (t.source, b.to) in off_edges:
                style = ", style=dashed"
            edges.append(
                (
                    natural_key(t.source),
                    natural_key(b.to),
                    f"  {_quote(t.source)} -> {_quote(b.to)} "
                    f"[label={_quote(label)}{style}];",
                )
            )
    edges.sort(key=lambda e: (e[0], e[1]))
    lines.extend(e[2] for e in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(base: str, dltts, name: str = "", names=(), **options) -> None:
    """Draw `dltts` as DOT at `base`, or at `stem-name.suffix` beside it when
    `names` holds several systems."""
    text = export_dot(dltts, **options)
    path = Path(base)
    try:
        if len(names) > 1:
            path = path.with_name(f"{path.stem}-{name}{path.suffix}")
        path.write_text(text, encoding="utf-8")
    except ValueError as exc:  # a name pathlib refuses, or text it cannot encode
        raise InputError(str(exc)) from None
