"""CmpLog probes: record comparison operands for input-to-state solving.

The AFL++ "CmpLog" scheme from the paper's §2.1 case study.  Each probe
targets one ``icmp`` of the *original* IR and records both operand values
at runtime.  Because Odin instruments before optimization, the recorded
values are direct copies of what the source compared — the prerequisite of
the input-to-state correspondence algorithm (RedQueen) that optimized-IR
instrumentation breaks (Figure 2's ``chr - 'a'`` shift).

The probe pins its operands with ``freeze`` so value rewrites cannot fold
the observation away even inside the instrumented fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.core.probe import InstructionProbe
from repro.ir.builder import IRBuilder
from repro.ir.instructions import IcmpInst, Instruction
from repro.ir.types import FunctionType, I64, VOID
from repro.ir.values import ConstantInt
from repro.vm.interpreter import ProbeRuntime, VM

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler

CMPLOG_RUNTIME = "__cmplog_hit"
_CMPLOG_FN_TYPE = FunctionType(VOID, (I64, I64, I64))

# Cap recorded pairs per probe per execution batch (the real CmpLog map is
# bounded too).
MAX_PAIRS_PER_PROBE = 32


class CmpProbe(InstructionProbe):
    """Records the operands of one comparison (paper §4's ``CmpProbe``)."""

    family = "cmplog"

    def __init__(self, the_cmp: IcmpInst):
        if not isinstance(the_cmp, IcmpInst):
            raise TypeError("CmpProbe targets an icmp instruction")
        super().__init__(the_cmp)
        self.the_cmp = the_cmp
        self.solved = False            # fuzzer annotation: both outcomes seen
        self.last_observed: Tuple[int, int] = (0, 0)

    def instrument(
        self, builder: IRBuilder, mapped: Instruction, sched: "Scheduler"
    ) -> None:
        runtime = sched.declare_runtime(CMPLOG_RUNTIME, _CMPLOG_FN_TYPE)
        lhs, rhs = mapped.operands[0], mapped.operands[1]
        args = []
        for op in (lhs, rhs):
            pinned = builder.freeze(op) if not isinstance(op, ConstantInt) else op
            if op.type.is_pointer():
                wide = builder.ptrtoint(pinned, I64)
            elif op.type.is_integer() and op.type.bits < 64:
                wide = builder.zext(pinned, I64)
            else:
                wide = pinned
            args.append(wide)
        builder.call(
            runtime, [ConstantInt(I64, self.id), args[0], args[1]], _CMPLOG_FN_TYPE
        )


class CmpLogRuntime(ProbeRuntime):
    """Collects (probe id -> operand pairs) during execution."""

    kinds = frozenset({"cmplog"})

    def __init__(self):
        self.pairs: Dict[int, List[Tuple[int, int]]] = {}

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: VM) -> None:
        if len(args) < 2:
            return
        bucket = self.pairs.setdefault(probe_id, [])
        if len(bucket) < MAX_PAIRS_PER_PROBE:
            pair = (args[0], args[1])
            if pair not in bucket:
                bucket.append(pair)

    def clear(self) -> None:
        self.pairs.clear()


def add_cmp_probes(engine, functions: Set[str] = None) -> List[CmpProbe]:
    """Attach a CmpProbe to every non-constant comparison in the program
    (or only in *functions* if given)."""
    probes: List[CmpProbe] = []
    for fn in engine.module.defined_functions():
        if functions is not None and fn.name not in functions:
            continue
        for inst in fn.instructions():
            if isinstance(inst, IcmpInst):
                if isinstance(inst.lhs, ConstantInt) and isinstance(inst.rhs, ConstantInt):
                    continue
                probes.append(engine.manager.add(CmpProbe(inst)))
    return probes
