"""OdinCov: basic-block hit-count coverage with runtime probe pruning.

The paper's demonstration tool (§5): "we implement OdinCov to record the
hit count for each basic block and prune unused probes at runtime like
Untracer does.  We also implement OdinCov-NoPrune, a weakened version of
OdinCov without runtime probe pruning."

The probe logic really is tiny — mirroring the paper's 33-lines-of-code
claim — because the framework handles fragments, scheduling and mapping:

* :class:`CovProbe.instrument` emits one runtime call;
* :meth:`OdinCov.prune_covered` removes probes whose counter fired and
  triggers one on-the-fly recompilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.engine import Odin, RebuildReport
from repro.core.probe import BlockProbe
from repro.instrument.base import SanitizerTool
from repro.ir.builder import IRBuilder
from repro.ir.types import FunctionType, I64, VOID
from repro.ir.values import ConstantInt
from repro.vm.interpreter import ProbeRuntime, VM

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler

ODIN_COV_RUNTIME = "__odin_cov_hit"
_COV_FN_TYPE = FunctionType(VOID, (I64,))


def _is_forwarding_block(block) -> bool:
    """A block holding only an unconditional branch."""
    from repro.ir.instructions import BranchInst

    if len(block.instructions) != 1:
        return False
    term = block.instructions[0]
    return isinstance(term, BranchInst) and not term.is_conditional


class CovProbe(BlockProbe):
    """Hit-count probe for one basic block.

    Coverage probes are stage-1 *patchable*: the counter call lowers to
    one register-free ``probe`` instruction, so enable/disable flips are
    serviced by patching the cached object instead of recompiling.
    """

    patchable = True
    family = "cov"

    def __init__(self, function, block):
        super().__init__(function, block)
        self.hits = 0  # probe-specific annotation, updated from profiles

    def instrument(self, builder: IRBuilder, sched: "Scheduler") -> None:
        runtime = sched.declare_runtime(ODIN_COV_RUNTIME, _COV_FN_TYPE)
        builder.call(runtime, [ConstantInt(I64, self.id)], _COV_FN_TYPE)


class CoverageRuntime(ProbeRuntime):
    """VM-side counter table: probe id -> hit count."""

    kinds = frozenset({"cov"})

    def __init__(self):
        self.counters: Dict[int, int] = {}

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: VM) -> None:
        self.counters[probe_id] = self.counters.get(probe_id, 0) + 1

    def covered_ids(self) -> List[int]:
        return [pid for pid, hits in self.counters.items() if hits > 0]

    def clear(self) -> None:
        self.counters.clear()


@dataclass
class PruneReport:
    """Outcome of one pruning pass."""

    pruned: int = 0
    remaining: int = 0
    rebuild: Optional[RebuildReport] = None


class OdinCov(SanitizerTool):
    """Coverage tool over an :class:`Odin` engine.

    ``prune=False`` gives OdinCov-NoPrune: probes stay in forever.
    """

    family = "cov"

    def __init__(self, engine: Odin, *, prune: bool = True, rebuild_fn=None):
        super().__init__(engine, CoverageRuntime())
        self.prune = prune
        # How on-the-fly recompiles run: directly on the engine (default)
        # or through a recompilation-service client
        # (``rebuild_fn=client.rebuild_report``), which batches this
        # tool's rebuilds with every other client's.
        self._rebuild = rebuild_fn if rebuild_fn is not None else engine.rebuild

    # -- setup -----------------------------------------------------------------

    def add_all_block_probes(self) -> int:
        """One probe per basic block of every defined function.

        Pure forwarding blocks (a lone unconditional branch) are skipped:
        executing one implies executing its successor, so a probe there
        duplicates the successor's probe — the same instrumentation-point
        selection real coverage passes make.
        """
        count = 0
        for fn in self.engine.module.defined_functions():
            for block in fn.blocks:
                if _is_forwarding_block(block):
                    continue
                self.register(CovProbe(fn, block))
                count += 1
        return count

    # -- the on-demand part -------------------------------------------------------
    # build() and make_vm() come from SanitizerTool; the profile hooks
    # below plug the coverage counters into its shared sync loop.

    def profile_counts(self) -> Dict[int, int]:
        return dict(self.runtime.counters)

    def clear_profile_counts(self) -> None:
        self.runtime.clear()

    def sync_hit_counts(self) -> None:
        """Map runtime counters back onto probe annotations (§1: first-class
        profiling support).  Leaves the raw counters in place — pruning
        still needs the covered set after syncing."""
        self.sync_profiles(clear=False)

    def prune_covered(self) -> PruneReport:
        """Remove probes whose block was covered; recompile on the fly.

        OdinCov-NoPrune keeps every probe, but the hit counts still sync:
        callers rely on ``prune_covered`` being the one cadence point
        where runtime counters land on ``CovProbe.hits`` regardless of
        pruning mode.  The NoPrune sync *clears* the runtime counters —
        leaving them would double-count on the next call.
        """
        report = PruneReport()
        if not self.prune:
            self.sync_profiles(clear=True)
            report.remaining = len(self.probes)
            return report
        self.sync_hit_counts()
        for pid in self.runtime.covered_ids():
            if self.probes.discard(pid) is not None:
                report.pruned += 1
        self.runtime.clear()
        report.remaining = len(self.probes)
        if report.pruned:
            report.rebuild = self._rebuild()
        return report
