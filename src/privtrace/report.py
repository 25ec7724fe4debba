"""The report every subcommand writes, and the dp-check section.

This module imports neither the transition-system nor the attack layers,
and imports `privacy` only inside `dp_section` and `values` only inside
`parse_mode`, so a report loads the mechanism layer only when it has a
dp-check section, and the cell layer only when it reads a mode.
`scenario` re-exports every name defined here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__
from .records import InputError

if TYPE_CHECKING:
    from .lts import Dltts
    from .privacy import Mechanism
    from .values import IntervalMeasureMode


class Report:
    """A deterministic report: its text lines and the values behind them."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.lines: list[str] = []
        self.values: dict[str, object] = {}
        # The systems the run sections built, by run name, for `--dot`.
        self.runs: dict[str, Dltts] = {}

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def put(self, key: str, value, line: str | None = None) -> None:
        self.values[key] = value
        if line is not None:
            self.lines.append(line)

    def header(self) -> str:
        return f"# privtrace {__version__}"

    def body(self) -> str:
        return "\n".join([f"report: {self.scenario}"] + self.lines) + "\n"

    def text(self) -> str:
        return self.header() + "\n" + self.body()


def parse_mode(name: str) -> IntervalMeasureMode:
    from .values import IntervalMeasureMode

    modes = {m.value: m for m in IntervalMeasureMode}
    try:
        return modes[name]
    except KeyError:
        raise InputError(
            f"unknown mode {name!r}; expected one of {sorted(modes)}"
        )


def dp_section(
    report: Report,
    name: str,
    m: Mechanism,
    adjacency: str,
    mode_name: str,
) -> bool:
    """LDP and DP epsilon bounds with witnesses; returns False when either
    is unbounded.  Any adjacency other than "hamming" is rho under
    `mode_name`; a taxon input carries the tree it is measured in."""
    from . import privacy

    report.add(f"## dp-check {name}")
    ldp = privacy.min_ldp_epsilon(m)
    report.put(f"dp/{name}/ldp", ldp, f"min LDP epsilon = {ldp}")
    report.add(f"  witness: {ldp.witness_str()}")
    if adjacency == "hamming":
        adj = privacy.HammingAdjacency()
    else:
        from .indist import RhoAdjacency

        adj = RhoAdjacency(parse_mode(mode_name))
    dp = privacy.min_dp_epsilon(m, adj)
    report.put(f"dp/{name}/dp/{adjacency}", dp, f"min DP epsilon ({adjacency}) = {dp}")
    report.add(f"  witness: {dp.witness_str()}")
    return not (ldp.unbounded or dp.unbounded)
