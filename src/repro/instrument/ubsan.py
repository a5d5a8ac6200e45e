"""UBSan-lite probes: signed-overflow checks with on-demand removal (§7).

The paper's future-work case: "Because of its high false-positive rate,
most programs terminate even on well-formed inputs.  With Odin, UBSan can
be used with fuzzing easily: a faulty probe can be removed immediately
once triggered, allowing the whole fuzz campaign to continue."

Each probe guards one signed ``add``/``sub``/``mul``: it computes the
would-be wide result, compares against the narrow result, and calls the
check runtime with the overflow condition.  The runtime traps when the
condition holds; :class:`UBSanTool` then removes that probe and rebuilds,
so the campaign continues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.dataflow import compute_value_ranges, may_overflow
from repro.core.engine import Odin, RebuildReport
from repro.core.probe import InstructionProbe
from repro.errors import VMTrap
from repro.instrument.base import SanitizerTool
from repro.ir.builder import IRBuilder
from repro.ir.instructions import BinaryInst, Instruction
from repro.ir.types import FunctionType, I1, I64, VOID
from repro.ir.values import ConstantInt
from repro.vm.interpreter import ProbeRuntime, VM

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler

UBSAN_RUNTIME = "__ubsan_check"
_UBSAN_FN_TYPE = FunctionType(VOID, (I64, I1))

_CHECKED_OPCODES = ("add", "sub", "mul")


class OverflowProbe(InstructionProbe):
    """Checks one signed arithmetic instruction for overflow."""

    family = "ubsan"

    def __init__(self, inst: BinaryInst):
        if not (isinstance(inst, BinaryInst) and inst.opcode in _CHECKED_OPCODES):
            raise TypeError("OverflowProbe targets add/sub/mul")
        super().__init__(inst)
        self.triggered = False  # fuzzer annotation
        self.hits = 0           # overflow fires synced from the runtime

    def instrument(
        self, builder: IRBuilder, mapped: Instruction, sched: "Scheduler"
    ) -> None:
        runtime = sched.declare_runtime(UBSAN_RUNTIME, _UBSAN_FN_TYPE)
        bits = mapped.type.bits
        if bits >= 64:
            return  # widening check needs a wider type than we have
        lhs, rhs = mapped.operands[0], mapped.operands[1]
        wide_l = builder.sext(lhs, I64) if not isinstance(lhs, ConstantInt) else \
            ConstantInt(I64, lhs.signed)
        wide_r = builder.sext(rhs, I64) if not isinstance(rhs, ConstantInt) else \
            ConstantInt(I64, rhs.signed)
        wide = builder.binop(mapped.opcode, wide_l, wide_r)
        lo = ConstantInt(I64, -(1 << (bits - 1)))
        hi = ConstantInt(I64, (1 << (bits - 1)) - 1)
        too_small = builder.icmp("slt", wide, lo)
        too_big = builder.icmp("sgt", wide, hi)
        overflow = builder.or_(too_small, too_big)
        builder.call(runtime, [ConstantInt(I64, self.id), overflow], _UBSAN_FN_TYPE)


class UBSanRuntime(ProbeRuntime):
    """Traps on the first overflow; records which probe fired.

    ``trap=False`` records fires without aborting — the always-on
    recording mode run-time partitioned sanitization uses, where the
    paper's "high false-positive rate" must not kill production traffic.
    """

    kinds = frozenset({"ubsan"})

    def __init__(self, trap: bool = True):
        self.trap = trap
        self.fired: Optional[int] = None
        self.fire_counts: Dict[int, int] = {}

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: VM) -> None:
        if not args:
            return
        if args[0]:
            self.fired = probe_id
            self.fire_counts[probe_id] = self.fire_counts.get(probe_id, 0) + 1
            if self.trap:
                raise VMTrap(f"ubsan: signed overflow at probe {probe_id}", "ubsan")

    def clear(self) -> None:
        self.fired = None

    def clear_counts(self) -> None:
        self.fire_counts.clear()


class UBSanTool(SanitizerTool):
    """UBSan with Odin-style on-demand probe removal."""

    family = "ubsan"

    def __init__(self, engine: Odin, *, trap: bool = True):
        super().__init__(engine, UBSanRuntime(trap=trap))
        self.removed: List[int] = []
        self.pruned = 0  # probes statically discharged by guided placement

    def add_all_overflow_probes(self, *, guided: bool = False) -> int:
        """Probe every narrow signed add/sub/mul.

        With ``guided=True`` the signed value-range analysis
        (:mod:`repro.analysis.dataflow`) decides placement: instructions
        whose operand ranges prove the result fits its type are skipped
        and counted in :attr:`pruned` — the PartiSan idea of sanitizing
        selectively, settled statically instead of by runtime variants.
        """
        count = 0
        self.pruned = 0
        for fn in self.engine.module.defined_functions():
            ranges = compute_value_ranges(fn) if guided else None
            for inst in fn.instructions():
                if (
                    isinstance(inst, BinaryInst)
                    and inst.opcode in _CHECKED_OPCODES
                    and inst.type.bits < 64
                ):
                    if guided and not may_overflow(inst, ranges):
                        self.pruned += 1
                        continue
                    self.register(OverflowProbe(inst))
                    count += 1
        return count

    # build()/make_vm()/sync_profiles() come from SanitizerTool.

    def profile_counts(self) -> Dict[int, int]:
        return dict(self.runtime.fire_counts)

    def clear_profile_counts(self) -> None:
        self.runtime.clear_counts()

    def remove_fired_probe(self) -> Optional[RebuildReport]:
        """Drop the probe that trapped and recompile on the fly."""
        fired = self.runtime.fired
        if fired is None:
            return None
        probe = self.probes.get(fired)
        self.runtime.clear()
        if probe is None:
            return None
        probe.triggered = True
        self.removed.append(fired)
        self.engine.manager.remove(probe)
        return self.engine.rebuild()
