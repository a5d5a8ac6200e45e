"""Figures 11 & 12 and the §5.3 recompilation-latency headline.

* Fig. 11 — average per-fragment recompile time, normalized to compiling
  the whole program (Odin-OnePartition).  Expected shape: Odin saves
  ~97.9% on average; json is the worst ratio (tiny program), sqlite the
  best (huge program); MaxPartition fragments compile ~6.5x faster than
  Odin's.

* Fig. 12 — worst-case recompile duration in absolute time, link cost
  stacked on top.  Expected shape: sqlite's giant interpreter fragment
  dominates; linking averages ~tens of ms.

* §5.3 headline — "the recompilation only takes 82 ms on average":
  average end-to-end rebuild time across the on-the-fly recompilations of
  a pruning coverage campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.partition import STRATEGY_ODIN, STRATEGY_ONE
from repro.core.variants import ALL_VARIANTS, VARIANT_LABELS
from repro.experiments.runners import build_odin_engine, deploy_odincov
from repro.programs.registry import TargetProgram, all_programs


@dataclass
class RecompileRow:
    """Per-program fragment compile-time statistics for one variant."""

    program: str
    variant: str
    num_fragments: int
    fragment_ms: List[float]
    link_ms: float

    @property
    def total_ms(self) -> float:
        return sum(self.fragment_ms)

    @property
    def average_ms(self) -> float:
        return self.total_ms / len(self.fragment_ms) if self.fragment_ms else 0.0

    @property
    def worst_ms(self) -> float:
        return max(self.fragment_ms, default=0.0)


@dataclass
class RecompileSummary:
    rows: List[RecompileRow]

    def row(self, program: str, variant: str) -> RecompileRow:
        for r in self.rows:
            if r.program == program and r.variant == variant:
                return r
        raise KeyError((program, variant))

    def normalized_average(self, program: str, variant: str) -> float:
        """Fig. 11 metric: avg fragment time / whole-program compile time."""
        whole = self.row(program, STRATEGY_ONE).total_ms
        return self.row(program, variant).average_ms / whole

    def programs(self) -> List[str]:
        seen: List[str] = []
        for r in self.rows:
            if r.program not in seen:
                seen.append(r.program)
        return seen

    def mean_savings(self, variant: str = STRATEGY_ODIN) -> float:
        """Average fraction of whole-program compile time saved (Fig. 11)."""
        ratios = [self.normalized_average(p, variant) for p in self.programs()]
        return 1.0 - sum(ratios) / len(ratios)


def measure_recompile_times(
    programs: Optional[List[TargetProgram]] = None,
    variants=ALL_VARIANTS,
) -> RecompileSummary:
    """Compile every fragment of every variant; collect simulated times."""
    programs = programs if programs is not None else all_programs()
    rows: List[RecompileRow] = []
    for program in programs:
        for variant in variants:
            engine = build_odin_engine(program, strategy=variant)
            report = engine.initial_build()
            rows.append(
                RecompileRow(
                    program=program.name,
                    variant=variant,
                    num_fragments=engine.num_fragments,
                    fragment_ms=sorted(report.fragment_compile_ms.values()),
                    link_ms=report.link_ms,
                )
            )
    return RecompileSummary(rows=rows)


@dataclass
class HeadlineResult:
    """§5.3: mean on-the-fly recompilation latency across a campaign."""

    rebuild_ms: List[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return sum(self.rebuild_ms) / len(self.rebuild_ms) if self.rebuild_ms else 0.0

    @property
    def count(self) -> int:
        return len(self.rebuild_ms)


def measure_headline_recompile(
    programs: Optional[List[TargetProgram]] = None, seed: int = 0
) -> HeadlineResult:
    """Average rebuild latency over per-program pruning campaigns.

    Each program's coverage probes are pruned in several waves (one per
    seed batch), each wave triggering one on-the-fly recompilation —
    approximating the steady drip of probe changes during fuzzing.
    """
    programs = programs if programs is not None else all_programs()
    result = HeadlineResult()
    for program in programs:
        seeds = program.seeds(seed)
        setup = deploy_odincov(program, prune=False)
        setup.tool.prune = True  # prune manually in waves below
        batch = max(1, len(seeds) // 3)
        for start in range(0, len(seeds), batch):
            for data in seeds[start : start + batch]:
                setup.executor.execute(data)
            report = setup.executor.prune()
            if report.rebuild is not None:
                result.rebuild_ms.append(report.rebuild.total_ms)
    return result


def format_fig11(summary: RecompileSummary) -> str:
    header = (
        f"{'program':>10} | "
        + " | ".join(f"{VARIANT_LABELS[v]:>18}" for v in ALL_VARIANTS)
        + " |  (avg fragment / whole-program compile)"
    )
    lines = [header, "-" * len(header)]
    for program in summary.programs():
        cells = " | ".join(
            f"{summary.normalized_average(program, v)*100:>17.2f}%"
            for v in ALL_VARIANTS
        )
        lines.append(f"{program:>10} | {cells} |")
    return "\n".join(lines)


def format_fig12(summary: RecompileSummary) -> str:
    header = (
        f"{'program':>10} | "
        + " | ".join(f"{VARIANT_LABELS[v]:>22}" for v in ALL_VARIANTS)
        + " |  worst fragment + link (ms)"
    )
    lines = [header, "-" * len(header)]
    for program in summary.programs():
        cells = []
        for variant in ALL_VARIANTS:
            row = summary.row(program, variant)
            cells.append(f"{row.worst_ms:>13.1f} + {row.link_ms:>5.1f}")
        lines.append(f"{program:>10} | " + " | ".join(c.rjust(22) for c in cells) + " |")
    return "\n".join(lines)
