"""ASan-lite probes: memory-access checks with ASAP-style hot pruning (§7).

AddressSanitizer's essence for this VM: every load/store gets a probe that
validates the accessed range at runtime (the VM knows its own memory map,
standing in for shadow memory).  The §7 future-work twist reproduced here
is online ASAP: "bugs are commonly located in cold checks; to reduce the
overhead of hot checks, ASAP first profiles to locate the hot checks and
then removes them with a rebuild... With Odin, hot checks discovered in
fuzzing can also be removed" — no separate profiling build needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.engine import Odin, RebuildReport
from repro.core.probe import InstructionProbe
from repro.errors import VMTrap
from repro.instrument.base import SanitizerTool
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Instruction, LoadInst, StoreInst
from repro.ir.types import FunctionType, I64, PTR, VOID
from repro.ir.values import ConstantInt
from repro.vm.interpreter import ProbeRuntime, VM

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler

ASAN_RUNTIME = "__asan_check"
_ASAN_FN_TYPE = FunctionType(VOID, (I64, PTR, I64))


class MemAccessProbe(InstructionProbe):
    """Validates the address range of one load or store."""

    family = "asan"

    def __init__(self, inst: Instruction):
        if not isinstance(inst, (LoadInst, StoreInst)):
            raise TypeError("MemAccessProbe targets a load or store")
        super().__init__(inst)
        self.hits = 0  # profile annotation (drives ASAP pruning)

    def instrument(
        self, builder: IRBuilder, mapped: Instruction, sched: "Scheduler"
    ) -> None:
        runtime = sched.declare_runtime(ASAN_RUNTIME, _ASAN_FN_TYPE)
        if isinstance(mapped, LoadInst):
            pointer = mapped.pointer
            size = mapped.type.size
        else:
            pointer = mapped.pointer
            size = mapped.value.type.size
        builder.call(
            runtime,
            [ConstantInt(I64, self.id), pointer, ConstantInt(I64, size)],
            _ASAN_FN_TYPE,
        )


class ASanRuntime(ProbeRuntime):
    """Range-checks accesses against the VM memory map; counts per probe.

    ``trap=False`` turns the runtime into a recording sanitizer: a
    violation is appended to :attr:`violations` and execution continues —
    the always-on "production traffic" mode of run-time partitioned
    sanitization, where a finding is logged rather than fatal.
    """

    kinds = frozenset({"asan"})

    def __init__(self, trap: bool = True):
        self.trap = trap
        self.hit_counts: Dict[int, int] = {}
        self.violation: Optional[int] = None
        self.violations: List[int] = []

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: VM) -> None:
        if len(args) < 2:
            return
        self.hit_counts[probe_id] = self.hit_counts.get(probe_id, 0) + 1
        addr, size = args[0], args[1]
        valid = (
            vm.exe.data_base <= addr
            and addr + size <= vm.mem_size
            and (addr + size <= vm.heap_ptr or addr >= vm.stack_ptr)
        )
        if not valid:
            self.violation = probe_id
            self.violations.append(probe_id)
            if self.trap:
                raise VMTrap(
                    f"asan: invalid access of {size} bytes at {addr:#x} "
                    f"(probe {probe_id})",
                    "asan",
                )

    def clear_counts(self) -> None:
        self.hit_counts.clear()


class ASanTool(SanitizerTool):
    """ASan-lite with online hot-check pruning."""

    family = "asan"

    def __init__(self, engine: Odin, *, trap: bool = True):
        super().__init__(engine, ASanRuntime(trap=trap))

    def add_all_access_probes(self) -> int:
        count = 0
        for fn in self.engine.module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, (LoadInst, StoreInst)):
                    self.register(MemAccessProbe(inst))
                    count += 1
        return count

    # build()/make_vm()/sync_profiles() come from SanitizerTool.

    def profile_counts(self) -> Dict[int, int]:
        return dict(self.runtime.hit_counts)

    def clear_profile_counts(self) -> None:
        self.runtime.clear_counts()

    def prune_hot_checks(self, hot_fraction: float = 0.2) -> Optional[RebuildReport]:
        """Remove the hottest *hot_fraction* of checks (ASAP, but online).

        *hot_fraction* must lie in ``(0, 1]``: 0 used to silently degrade
        to "prune one probe" via ``max(1, 0)``, and negative values
        sliced the ranking from the tail — pruning the *coldest* checks.
        """
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1], got {hot_fraction!r}"
            )
        self.sync_profiles()
        ranked = sorted(
            self.probes.values(), key=lambda p: p.hits, reverse=True
        )
        cutoff = max(1, int(len(ranked) * hot_fraction))
        hot = [p for p in ranked[:cutoff] if p.hits > 0]
        if not hot:
            return None
        for probe in hot:
            self.engine.manager.remove(probe)
        return self.engine.rebuild()
