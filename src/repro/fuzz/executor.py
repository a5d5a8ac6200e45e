"""Executors: run one input against an instrumented target.

An executor hides which instrumentation stack produced the binary so the
fuzzing loop (and the benchmark harness) can drive OdinCov, the
SanitizerCoverage analogue, or the binary-instrumentation baselines
uniformly.  Simulated cycle counts accumulate in ``total_cycles`` — the
quantity every figure normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.baselines.dbi import DrCov
from repro.baselines.rewriter import LibInst
from repro.errors import FuzzError
from repro.instrument.coverage import OdinCov
from repro.instrument.sancov import SanCovBuild
from repro.linker.linker import Executable
from repro.vm.interpreter import ExecutionResult, VM

ENTRY = "run_input"
#: Symbols a corpus-driven build keeps external (never internalized).
PRESERVED = ("main", ENTRY)


def run_input(vm: VM, data: bytes) -> ExecutionResult:
    """One execution under the corpus protocol every harness shares:
    reset the VM, allocate the input plus a terminator byte, write it,
    call ``run_input(addr, len)``."""
    vm.reset()
    addr = vm.alloc(max(len(data), 1) + 1)
    vm.write_bytes(addr, data)
    return vm.run(ENTRY, (addr, len(data)), reset=False)


@dataclass
class ExecOutcome:
    result: ExecutionResult
    coverage: Set[int]


class Executor:
    """Base: execute inputs, track totals."""

    def __init__(self):
        self.executions = 0
        self.total_cycles = 0

    def execute(self, data: bytes) -> ExecOutcome:
        raise NotImplementedError

    def _run_vm(self, vm: VM, data: bytes) -> ExecutionResult:
        result = run_input(vm, data)
        self.executions += 1
        self.total_cycles += result.cycles
        return result


class PlainExecutor(Executor):
    """Uninstrumented binary: the baseline duration in every figure."""

    def __init__(self, executable: Executable):
        super().__init__()
        self.vm = VM(executable)

    def execute(self, data: bytes) -> ExecOutcome:
        return ExecOutcome(self._run_vm(self.vm, data), set())


class OdinCovExecutor(Executor):
    """OdinCov (optionally pruning) over an Odin engine."""

    def __init__(self, tool: OdinCov, extra_runtime=None):
        super().__init__()
        self.tool = tool
        self.extra_runtime = extra_runtime
        if tool.engine.executable is None:
            raise FuzzError("OdinCov engine has no executable; call build() first")
        self._vm = tool.make_vm(extra_runtime)
        self._exe = tool.engine.executable

    def _refresh_vm(self) -> None:
        if self.tool.engine.executable is not self._exe:
            self._exe = self.tool.engine.executable
            self._vm = self.tool.make_vm(self.extra_runtime)

    def execute(self, data: bytes) -> ExecOutcome:
        self._refresh_vm()
        before = dict(self.tool.runtime.counters)
        result = self._run_vm(self._vm, data)
        covered = {
            pid
            for pid, hits in self.tool.runtime.counters.items()
            if hits > before.get(pid, 0)
        }
        return ExecOutcome(result, covered)

    def prune(self):
        """Untracer-style pruning + on-the-fly rebuild."""
        report = self.tool.prune_covered()
        self._refresh_vm()
        return report


class SanCovExecutor(Executor):
    """SanitizerCoverage-style static instrumentation."""

    def __init__(self, build: SanCovBuild):
        super().__init__()
        from repro.instrument.coverage import CoverageRuntime

        self.build = build
        self.runtime = CoverageRuntime()
        self.vm = VM(build.executable, probe_runtime=self.runtime)

    def execute(self, data: bytes) -> ExecOutcome:
        before = dict(self.runtime.counters)
        result = self._run_vm(self.vm, data)
        covered = {
            pid
            for pid, hits in self.runtime.counters.items()
            if hits > before.get(pid, 0)
        }
        return ExecOutcome(result, covered)


class BlockHookExecutor(Executor):
    """Shared logic for the binary-instrumentation baselines."""

    def __init__(self, tool):
        super().__init__()
        self.tool = tool
        self.vm = tool.make_vm()

    def execute(self, data: bytes) -> ExecOutcome:
        # Report only this execution's newly covered blocks (as block
        # identity hashes); the tool's cumulative set would make every
        # input look like it covers everything ever covered.
        before = set(self.tool.coverage)
        result = self._run_vm(self.vm, data)
        covered = {hash(key) & 0x7FFFFFFF for key in self.tool.coverage - before}
        return ExecOutcome(result, covered)


class DrCovExecutor(BlockHookExecutor):
    def __init__(self, executable: Executable):
        super().__init__(DrCov(executable))


class LibInstExecutor(BlockHookExecutor):
    def __init__(self, executable: Executable):
        super().__init__(LibInst(executable))
