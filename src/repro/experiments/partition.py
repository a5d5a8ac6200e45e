"""Figure 10 & Table 1: execution duration of partition-scheme variants.

Non-instrumented programs compiled through each partition scheme
(Odin-OnePartition / Odin / Odin-MaxPartition), normalized to the
compiler's original output.  Expected shape (§5.2): OnePartition ~1.12%,
Odin ~1.43%, MaxPartition ~55.77% average overhead, with MaxPartition's
damage concentrated in IPO-dependent programs (harfbuzz worst, libjpeg
best).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.variants import ALL_VARIANTS, VARIANT_LABELS
from repro.experiments.runners import (
    build_odin_engine,
    measure_baseline_cycles,
    replay_cycles,
)
from repro.fuzz.executor import PlainExecutor
from repro.programs.registry import TargetProgram, all_programs


@dataclass
class PartitionRow:
    """One program's Figure 10 bars plus fragment statistics."""

    program: str
    baseline_cycles: int
    variant_cycles: Dict[str, int] = field(default_factory=dict)
    num_fragments: Dict[str, int] = field(default_factory=dict)

    def normalized(self, variant: str) -> float:
        return self.variant_cycles[variant] / self.baseline_cycles

    def overhead(self, variant: str) -> float:
        return self.normalized(variant) - 1.0


@dataclass
class PartitionSummary:
    rows: List[PartitionRow]

    def mean_overhead(self, variant: str) -> float:
        return sum(r.overhead(variant) for r in self.rows) / len(self.rows)

    def worst_program(self, variant: str) -> PartitionRow:
        return max(self.rows, key=lambda r: r.overhead(variant))

    def best_program(self, variant: str) -> PartitionRow:
        return min(self.rows, key=lambda r: r.overhead(variant))


def measure_partition_variants(
    programs: Optional[List[TargetProgram]] = None,
    variants=ALL_VARIANTS,
    seed: int = 0,
) -> PartitionSummary:
    """Run the Fig. 10 experiment (no instrumentation anywhere)."""
    programs = programs if programs is not None else all_programs()
    rows: List[PartitionRow] = []
    for program in programs:
        seeds = program.seeds(seed)
        row = PartitionRow(
            program=program.name,
            baseline_cycles=measure_baseline_cycles(program, seeds),
        )
        for variant in variants:
            engine = build_odin_engine(program, strategy=variant)
            engine.initial_build()  # no probes registered
            executor = PlainExecutor(engine.executable)
            row.variant_cycles[variant] = replay_cycles(executor, seeds)
            row.num_fragments[variant] = engine.num_fragments
        rows.append(row)
    return PartitionSummary(rows=rows)


def format_table1() -> str:
    """Table 1: the variant descriptions."""
    lines = [
        f"{'Variant':>20} | {'Code Fragments':>16} | Feature",
        "-" * 60,
        f"{'Odin (Original)':>20} | {'trial-guided':>16} | balanced",
        f"{'Odin-OnePartition':>20} | {'1':>16} | Better Optimization",
        f"{'Odin-MaxPartition':>20} | {'max possible':>16} | Faster Recompilation",
    ]
    return "\n".join(lines)


def format_fig10(summary: PartitionSummary) -> str:
    header = (
        f"{'program':>10} | "
        + " | ".join(f"{VARIANT_LABELS[v]:>18}" for v in ALL_VARIANTS)
        + " | fragments (one/odin/max)"
    )
    lines = [header, "-" * len(header)]
    for row in summary.rows:
        cells = " | ".join(f"{row.normalized(v):>17.3f}x" for v in ALL_VARIANTS)
        frags = "/".join(str(row.num_fragments[v]) for v in ALL_VARIANTS)
        lines.append(f"{row.program:>10} | {cells} | {frags}")
    lines.append("-" * len(header))
    means = " | ".join(
        f"{summary.mean_overhead(v)*100:>16.2f}% " for v in ALL_VARIANTS
    )
    lines.append(f"{'mean ovh':>10} | {means} |")
    return "\n".join(lines)
