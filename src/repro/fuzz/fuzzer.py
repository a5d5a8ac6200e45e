"""The coverage-guided fuzzing loop.

AFL-style: pick a corpus entry, mutate, execute, keep inputs reaching new
coverage.  Two Odin-specific hooks reproduce the paper's workflow:

* ``prune_interval`` — every N executions the fuzzer asks the OdinCov
  executor to prune covered probes and recompile on the fly (Untracer/
  Zeror-style, but compiler-based), and waits for that rebuild, whether
  the engine runs it in-process or a recompilation service does;
* ``cmplog`` — when a comparison roadblock stalls progress, recorded
  operand pairs are run through input-to-state substitution, and solved
  comparisons' probes are removed (§2.1: AFL++ considers a comparison no
  roadblock once both outcomes were taken).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import RebuildReport
from repro.errors import FuzzError
from repro.fuzz.corpus import Corpus
from repro.fuzz.executor import Executor, OdinCovExecutor
from repro.fuzz.i2s import solve_comparisons
from repro.fuzz.mutator import Mutator
from repro.utils.rng import DeterministicRNG


@dataclass
class FuzzStats:
    executions: int = 0
    total_cycles: int = 0
    corpus_size: int = 0
    coverage: int = 0
    crashes: int = 0
    prunes: int = 0
    rebuilds: int = 0
    # Elapsed (simulated) rebuild time: the latency a fuzzer actually
    # waits.  On a worker pool this is the makespan, not the lane-sum.
    rebuild_ms: float = 0.0
    # Lane-sum of the same rebuilds: total compile work across workers.
    rebuild_cpu_ms: float = 0.0
    solved_comparisons: int = 0
    crash_inputs: List[bytes] = field(default_factory=list)


class Fuzzer:
    """Coverage-guided fuzzing over any :class:`Executor`."""

    def __init__(
        self,
        executor: Executor,
        seeds: List[bytes],
        *,
        seed: int = 1,
        prune_interval: int = 0,
        keep_crashes: bool = True,
    ):
        self.executor = executor
        self.corpus = Corpus(seeds)
        self.rng = DeterministicRNG(seed)
        self.mutator = Mutator(self.rng.fork())
        self.prune_interval = prune_interval
        self.keep_crashes = keep_crashes
        self.stats = FuzzStats()

    # -- driving --------------------------------------------------------------

    def run(self, executions: int) -> FuzzStats:
        """Run the loop for *executions* mutated inputs (plus seed triage)."""
        for seed in self.corpus.pending_seeds():
            self._execute_and_consider(seed)
        if not self.corpus.entries:
            raise FuzzError(
                f"no usable seeds: all {self.stats.crashes} seed inputs "
                f"crashed during triage; provide at least one seed that "
                f"executes without trapping"
            )
        for _ in range(executions):
            entry = self.corpus.pick(self.rng)
            splice = self.corpus.pick(self.rng).data if len(self.corpus) > 1 else None
            data = self.mutator.mutate(entry.data, splice)
            self._execute_and_consider(data)
            if (
                self.prune_interval
                and isinstance(self.executor, OdinCovExecutor)
                # The executor's live counter, not stats.executions: the
                # latter only syncs after the loop, so reading it here
                # made the prune fire on every single iteration.
                and self.executor.executions % self.prune_interval == 0
            ):
                self.stats.prunes += 1
                report = self.executor.prune()
                if report.rebuild is not None:
                    self._note_rebuild(report.rebuild)
        self._sync_stats()
        return self.stats

    def replay(self, inputs: List[bytes]) -> FuzzStats:
        """Execute fixed inputs without mutation (the §5 replay protocol)."""
        for data in inputs:
            self._execute_and_consider(data)
        self._sync_stats()
        return self.stats

    # -- internals ---------------------------------------------------------------

    def _execute_and_consider(self, data: bytes) -> None:
        outcome = self.executor.execute(data)
        if outcome.result.trap is not None and self.keep_crashes:
            self.stats.crashes += 1
            if len(self.stats.crash_inputs) < 16:
                self.stats.crash_inputs.append(data)
            return
        self.corpus.consider(data, outcome.coverage, self.executor.executions)

    def _note_rebuild(self, report: RebuildReport) -> None:
        self.stats.rebuilds += 1
        self.stats.rebuild_ms += report.wall_ms
        self.stats.rebuild_cpu_ms += report.total_ms

    def _sync_stats(self) -> None:
        self.stats.executions = self.executor.executions
        self.stats.total_cycles = self.executor.total_cycles
        self.stats.corpus_size = len(self.corpus)
        self.stats.coverage = self.corpus.coverage_count


class CmpLogFuzzer(Fuzzer):
    """Fuzzer with CmpLog probes and input-to-state solving.

    The executor must be an :class:`OdinCovExecutor` whose engine also has
    CmpLog probes registered (see :func:`repro.instrument.add_cmp_probes`);
    *cmplog_runtime* collects operand pairs during execution.
    """

    def __init__(self, executor, seeds, cmplog_runtime, cmp_probes, **kwargs):
        super().__init__(executor, seeds, **kwargs)
        self.cmplog_runtime = cmplog_runtime
        self.cmp_probes = {p.id: p for p in cmp_probes}

    def solve_roadblocks(self, max_candidates: int = 64) -> int:
        """Run input-to-state over the corpus; remove solved cmp probes."""
        solved = 0
        pairs_by_probe = dict(self.cmplog_runtime.pairs)
        for probe_id, pairs in pairs_by_probe.items():
            probe = self.cmp_probes.get(probe_id)
            if probe is None or probe.solved:
                continue
            progressed = False
            for entry in list(self.corpus.entries):
                for cand in solve_comparisons(entry.data, pairs, limit_total=8):
                    outcome = self.executor.execute(cand)
                    added = self.corpus.consider(
                        cand, outcome.coverage, self.executor.executions
                    )
                    if added is not None:
                        progressed = True
                if progressed:
                    break
            if progressed:
                probe.solved = True
                probe.last_observed = pairs[-1]
                solved += 1
                # Solved comparisons are no longer roadblocks: drop the probe.
                if probe.id >= 0:
                    self.executor.tool.engine.manager.remove(probe)
                    self.cmp_probes.pop(probe_id, None)
        if solved:
            report = self.executor.tool.engine.rebuild()
            self._note_rebuild(report)
            self.executor._refresh_vm()
            self.stats.solved_comparisons += solved
        self._sync_stats()
        return solved
