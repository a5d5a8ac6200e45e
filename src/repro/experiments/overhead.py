"""Figures 8 & 9: normalized execution duration of instrumented programs.

Fig. 8 plots, per program, the instrumented/baseline duration ratio for
OdinCov, SanCov, OdinCov-NoPrune, DrCov and libInst.  Fig. 9 pools all
programs.  §5.1's headline numbers derive from the same data:

* median overheads: OdinCov ~3.48%, SanCov ~15%, DrCov ~63%, libInst ~1920%
* OdinCov-NoPrune ~23% slower than SanCov on average
* pruning improves OdinCov over OdinCov-NoPrune by ~22%
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.runners import (
    ALL_TOOLS,
    geometric_mean,
    measure_baseline_cycles,
    measure_tool_cycles,
    median,
)
from repro.programs.registry import TargetProgram, all_programs


@dataclass
class ProgramOverheads:
    """One row of Figure 8."""

    program: str
    baseline_cycles: int
    tool_cycles: Dict[str, int] = field(default_factory=dict)

    def normalized(self, tool: str) -> float:
        """Instrumented duration / baseline duration (1.0 = no overhead)."""
        return self.tool_cycles[tool] / self.baseline_cycles

    def overhead(self, tool: str) -> float:
        """Fractional overhead (0.15 = 15% slower)."""
        return self.normalized(tool) - 1.0


@dataclass
class OverheadSummary:
    """Figure 9 + the §5.1 aggregate claims."""

    rows: List[ProgramOverheads]
    tools: List[str]

    def median_overhead(self, tool: str) -> float:
        return median([row.overhead(tool) for row in self.rows])

    def mean_normalized(self, tool: str) -> float:
        return geometric_mean([row.normalized(tool) for row in self.rows])


def measure_overheads(
    programs: Optional[List[TargetProgram]] = None,
    tools: Optional[List[str]] = None,
    seed: int = 0,
) -> OverheadSummary:
    """Run the Fig. 8/9 experiment."""
    programs = programs if programs is not None else all_programs()
    tools = list(tools) if tools is not None else list(ALL_TOOLS)
    rows: List[ProgramOverheads] = []
    for program in programs:
        seeds = program.seeds(seed)
        row = ProgramOverheads(
            program=program.name,
            baseline_cycles=measure_baseline_cycles(program, seeds),
        )
        for tool in tools:
            row.tool_cycles[tool] = measure_tool_cycles(program, tool, seeds)
        rows.append(row)
    return OverheadSummary(rows=rows, tools=tools)


def format_fig8(summary: OverheadSummary) -> str:
    """Figure 8 as a text table (normalized execution duration)."""
    header = f"{'program':>10} | " + " | ".join(f"{t:>15}" for t in summary.tools)
    lines = [header, "-" * len(header)]
    for row in summary.rows:
        cells = " | ".join(f"{row.normalized(t):>14.3f}x" for t in summary.tools)
        lines.append(f"{row.program:>10} | {cells}")
    return "\n".join(lines)


def format_fig9(summary: OverheadSummary) -> str:
    """Figure 9 as a text table (pooled median/mean overheads)."""
    lines = [f"{'tool':>16} | {'median overhead':>16} | {'geomean duration':>17}"]
    lines.append("-" * len(lines[0]))
    for tool in summary.tools:
        lines.append(
            f"{tool:>16} | {summary.median_overhead(tool)*100:>15.2f}% "
            f"| {summary.mean_normalized(tool):>16.3f}x"
        )
    return "\n".join(lines)
