"""Instruction selection: IR module -> object file.

Lowering pipeline per function:

1. split critical edges so phi moves have a home
2. number basic blocks, assign virtual registers to SSA values
3. emit machine instructions per block (constants fold into immediate
   forms; globals materialize through ``lea``; allocas become static
   frame slots)
4. eliminate phis with parallel-copy move sequences in predecessors
5. lay out blocks, resolve branch targets to instruction indices
6. "register allocate": rank vregs by use count, give the hottest
   :data:`NUM_PHYS_REGS` zero-cost access and bake spill penalties into
   the cost of every instruction touching the rest

Probe calls — calls to the well-known instrumentation runtime functions —
lower to dedicated ``probe`` instructions with their scheme's cost instead
of full calls, modelling inlined instrumentation sequences.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.backend.costmodel import (
    CALL_BASE_COST,
    CALL_PER_ARG_COST,
    NUM_PHYS_REGS,
    PROBE_COST,
    SPILL_PENALTY,
    base_cost,
    compile_cost_ms,
)
from repro.backend.machine import (
    DataSymbol,
    MachineFunction,
    MachineInst,
    ObjectFile,
)
from repro.errors import BackendError
from repro.ir.analysis import predecessor_map
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FreezeInst,
    GepInst,
    IcmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import (
    Argument,
    ConstantArray,
    ConstantData,
    ConstantInt,
    GlobalValue,
    NullPtr,
    UndefValue,
    Value,
)

# Instrumentation runtime functions lowered to probe instructions.
PROBE_RUNTIME_FUNCTIONS: Dict[str, str] = {
    "__odin_cov_hit": "cov",
    "__sancov_hit": "cov",
    "__cmplog_hit": "cmplog",
    "__asan_check": "asan",
    "__ubsan_check": "ubsan",
    "__odin_prof_enter": "prof_enter",
    "__odin_prof_exit": "prof_exit",
}


def lower_module(module: Module) -> ObjectFile:
    """Lower every definition in *module* to an object file.

    Critical-edge splitting mutates the module's CFG (semantics preserved);
    modules handed to the backend are treated as compilation scratch.
    """
    obj = ObjectFile(module.name)
    for gv in module.global_variables():
        if gv.is_declaration():
            obj.imports.append(gv.name)
        else:
            obj.add_data(
                DataSymbol(gv.name, _lower_initializer(gv), gv.linkage, gv.is_const)
            )
    for fn in module.functions():
        if fn.is_declaration():
            obj.imports.append(fn.name)
        else:
            obj.add_function(lower_function(fn))
    for alias in module.aliases():
        obj.aliases[alias.name] = (alias.aliasee.name, alias.linkage)
    obj.compile_ms = compile_cost_ms(module)
    return obj


def _lower_initializer(gv) -> bytes:
    init = gv.initializer
    if isinstance(init, ConstantInt):
        return init.value.to_bytes(init.type.size, "little")
    if isinstance(init, ConstantData):
        data = init.data
        want = gv.value_type.size
        return data + b"\x00" * (want - len(data)) if len(data) < want else data[:want]
    if isinstance(init, ConstantArray):
        width = init.element_type.size
        return b"".join(v.to_bytes(width, "little") for v in init.values)
    if isinstance(init, NullPtr):
        return b"\x00" * 8
    if isinstance(init, UndefValue):
        return b"\x00" * gv.value_type.size
    raise BackendError(f"cannot lower initializer of @{gv.name}: {init!r}")


def split_critical_edges(fn: Function) -> None:
    """Insert empty blocks on critical edges into blocks with phis."""
    # One map, built at the first block with phis.  A split changes the
    # predecessors of only the block it splits for, so the entries of
    # the blocks still to visit stay exact.
    pred_map = None
    for block in list(fn.blocks):
        if not block.phis():
            continue
        if pred_map is None:
            pred_map = predecessor_map(fn)
        preds = pred_map[block]
        if len(preds) < 2:
            continue
        for pred in preds:
            if len(pred.successors()) < 2:
                continue
            term = pred.terminator
            # A switch may reach `block` through several edges; one split
            # block per predecessor is enough since all carry the same value.
            mid = fn.add_block(f"{pred.name}.{block.name}.crit")
            IRBuilder.at_end(mid).br(block)
            term.replace_target(block, mid)
            for phi in block.phis():
                phi.replace_incoming_block(pred, mid)


class _FunctionLowering:
    def __init__(self, fn: Function):
        self.fn = fn
        self.reg_of: Dict[int, int] = {}
        self.next_reg = 0
        self.frame_offsets: Dict[int, int] = {}
        self.frame_size = 0
        self.block_ids: Dict[int, int] = {}
        # Per-block machine code; merged at layout time.
        self.block_code: List[List[MachineInst]] = []

    # -- registers -----------------------------------------------------------

    def new_reg(self) -> int:
        reg = self.next_reg
        self.next_reg += 1
        return reg

    def reg_for(self, value: Value) -> int:
        reg = self.reg_of.get(id(value))
        if reg is None:
            reg = self.new_reg()
            self.reg_of[id(value)] = reg
        return reg

    # -- main ------------------------------------------------------------------

    def run(self) -> MachineFunction:
        fn = self.fn
        split_critical_edges(fn)

        mf = MachineFunction(fn.name, fn.linkage)
        for i, arg in enumerate(fn.args):
            self.reg_of[id(arg)] = self.new_reg()

        for i, block in enumerate(fn.blocks):
            self.block_ids[id(block)] = i
            mf.block_names[i] = block.name
        mf.num_blocks = len(fn.blocks)

        # Allocate frame slots for allocas up front (static frame layout).
        for inst in fn.instructions():
            if isinstance(inst, AllocaInst):
                size = max(1, inst.allocated_type.size)
                size = (size + 7) & ~7
                self.frame_offsets[id(inst)] = self.frame_size
                self.frame_size += size

        for block in fn.blocks:
            self.block_code.append(self._lower_block(block))

        self._eliminate_phis(fn)
        insts = self._layout(fn)
        self._apply_regalloc(insts)

        mf.insts = insts
        mf.num_regs = self.next_reg
        mf.frame_size = self.frame_size
        return mf

    # -- block lowering --------------------------------------------------------

    def _lower_block(self, block: BasicBlock) -> List[MachineInst]:
        code: List[MachineInst] = [
            MachineInst("bb", imm=self.block_ids[id(block)], cost=0)
        ]
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                self.reg_for(inst)  # reserve the register; moves come later
                continue
            self._lower_inst(inst, code)
        return code

    def _emit(self, code: List[MachineInst], inst: MachineInst) -> MachineInst:
        inst.cost = self._initial_cost(inst)
        code.append(inst)
        return inst

    @staticmethod
    def _initial_cost(inst: MachineInst) -> int:
        if inst.op == "call":
            return CALL_BASE_COST + CALL_PER_ARG_COST * len(inst.args)
        if inst.op == "icall":
            return base_cost("icall") + CALL_PER_ARG_COST * len(inst.args)
        if inst.op == "probe":
            return PROBE_COST[inst.probe_kind]
        return base_cost(inst.op)

    def _materialize(self, value: Value, code: List[MachineInst]) -> int:
        """Return a register holding *value*, emitting code if needed."""
        if isinstance(value, ConstantInt):
            # Registers hold the unsigned (wrapped) representation.
            reg = self.new_reg()
            self._emit(code, MachineInst("movi", dst=reg, imm=value.value))
            return reg
        if isinstance(value, NullPtr):
            reg = self.new_reg()
            self._emit(code, MachineInst("movi", dst=reg, imm=0))
            return reg
        if isinstance(value, UndefValue):
            reg = self.new_reg()
            self._emit(code, MachineInst("movi", dst=reg, imm=0))
            return reg
        if isinstance(value, GlobalValue):
            reg = self.new_reg()
            self._emit(code, MachineInst("lea", dst=reg, sym=value.name))
            return reg
        if isinstance(value, AllocaInst):
            reg = self.new_reg()
            self._emit(
                code,
                MachineInst("leaf", dst=reg, imm=self.frame_offsets[id(value)]),
            )
            return reg
        if isinstance(value, (Instruction, Argument)):
            return self.reg_for(value)
        raise BackendError(f"cannot materialize operand {value!r}")

    def _index_reg(self, value: Value, code: List[MachineInst]) -> int:
        """Materialize a GEP index, widening to 64 bits if needed."""
        reg = self._materialize(value, code)
        bits = value.type.bits if value.type.is_integer() else 64
        if bits < 64:
            wide = self.new_reg()
            self._emit(
                code, MachineInst(f"cast.sext.{bits}.64", dst=wide, srcs=(reg,))
            )
            return wide
        return reg

    @staticmethod
    def _width(value: Value) -> int:
        if value.type.is_integer():
            return max(8, value.type.bits)
        return 64  # pointers

    def _lower_inst(self, inst: Instruction, code: List[MachineInst]) -> None:
        if isinstance(inst, AllocaInst):
            return  # frame slot; address materialized at use sites
        if isinstance(inst, BinaryInst):
            bits = inst.type.bits
            if isinstance(inst.rhs, ConstantInt):
                a = self._materialize(inst.lhs, code)
                self._emit(
                    code,
                    MachineInst(
                        f"bini.{inst.opcode}.{bits}",
                        dst=self.reg_for(inst),
                        srcs=(a,),
                        imm=inst.rhs.value,
                    ),
                )
            else:
                a = self._materialize(inst.lhs, code)
                b = self._materialize(inst.rhs, code)
                self._emit(
                    code,
                    MachineInst(
                        f"bin.{inst.opcode}.{bits}",
                        dst=self.reg_for(inst),
                        srcs=(a, b),
                    ),
                )
            return
        if isinstance(inst, IcmpInst):
            bits = inst.lhs.type.bits if inst.lhs.type.is_integer() else 64
            if isinstance(inst.rhs, ConstantInt):
                a = self._materialize(inst.lhs, code)
                self._emit(
                    code,
                    MachineInst(
                        f"cmpi.{inst.predicate}.{bits}",
                        dst=self.reg_for(inst),
                        srcs=(a,),
                        imm=inst.rhs.value,
                    ),
                )
            else:
                a = self._materialize(inst.lhs, code)
                b = self._materialize(inst.rhs, code)
                self._emit(
                    code,
                    MachineInst(
                        f"cmp.{inst.predicate}.{bits}",
                        dst=self.reg_for(inst),
                        srcs=(a, b),
                    ),
                )
            return
        if isinstance(inst, CastInst):
            src = self._materialize(inst.value, code)
            if inst.opcode in ("ptrtoint", "inttoptr"):
                self._emit(code, MachineInst("mov", dst=self.reg_for(inst), srcs=(src,)))
                return
            from_bits = inst.value.type.bits
            to_bits = inst.type.bits
            self._emit(
                code,
                MachineInst(
                    f"cast.{inst.opcode}.{from_bits}.{to_bits}",
                    dst=self.reg_for(inst),
                    srcs=(src,),
                ),
            )
            return
        if isinstance(inst, SelectInst):
            c = self._materialize(inst.cond, code)
            a = self._materialize(inst.if_true, code)
            b = self._materialize(inst.if_false, code)
            self._emit(
                code, MachineInst("sel", dst=self.reg_for(inst), srcs=(c, a, b))
            )
            return
        if isinstance(inst, FreezeInst):
            src = self._materialize(inst.value, code)
            self._emit(code, MachineInst("freeze", dst=self.reg_for(inst), srcs=(src,)))
            return
        if isinstance(inst, LoadInst):
            addr = self._materialize(inst.pointer, code)
            self._emit(
                code,
                MachineInst(
                    f"ld.{self._width(inst)}", dst=self.reg_for(inst), srcs=(addr,)
                ),
            )
            return
        if isinstance(inst, StoreInst):
            value = self._materialize(inst.value, code)
            addr = self._materialize(inst.pointer, code)
            self._emit(
                code,
                MachineInst(f"st.{self._width(inst.value)}", srcs=(addr, value)),
            )
            return
        if isinstance(inst, GepInst):
            base = self._materialize(inst.base, code)
            index = self._index_reg(inst.index, code)
            self._emit(
                code,
                MachineInst(
                    "addsc",
                    dst=self.reg_for(inst),
                    srcs=(base, index),
                    imm=max(1, inst.element_type.size),
                ),
            )
            return
        if isinstance(inst, CallInst):
            self._lower_call(inst, code)
            return
        if isinstance(inst, BranchInst):
            if inst.is_conditional:
                cond = self._materialize(inst.cond, code)
                self._emit(
                    code,
                    MachineInst(
                        "brt",
                        srcs=(cond,),
                        targets=(
                            self.block_ids[id(inst.targets[0])],
                            self.block_ids[id(inst.targets[1])],
                        ),
                    ),
                )
            else:
                self._emit(
                    code,
                    MachineInst(
                        "jmp", targets=(self.block_ids[id(inst.targets[0])],)
                    ),
                )
            return
        if isinstance(inst, SwitchInst):
            value = self._materialize(inst.value, code)
            table = tuple(
                (c.signed, self.block_ids[id(b)]) for c, b in inst.cases
            )
            self._emit(
                code,
                MachineInst(
                    "switch",
                    srcs=(value,),
                    table=table,
                    targets=(self.block_ids[id(inst.default)],),
                ),
            )
            return
        if isinstance(inst, RetInst):
            if inst.value is not None:
                src = self._materialize(inst.value, code)
                self._emit(code, MachineInst("ret", srcs=(src,)))
            else:
                self._emit(code, MachineInst("ret"))
            return
        if isinstance(inst, UnreachableInst):
            self._emit(code, MachineInst("trap"))
            return
        raise BackendError(f"cannot lower instruction {inst!r}")

    def _lower_call(self, inst: CallInst, code: List[MachineInst]) -> None:
        callee_name = inst.called_function_name()
        dst = self.reg_for(inst) if not inst.type.is_void() else -1

        # Instrumentation runtime calls lower to probe instructions.
        probe_kind = PROBE_RUNTIME_FUNCTIONS.get(callee_name or "")
        if probe_kind is not None:
            args = inst.args
            probe_id = 0
            value_args: List[int] = []
            if args and isinstance(args[0], ConstantInt):
                probe_id = args[0].signed
                rest = args[1:]
            else:
                rest = args
            for arg in rest:
                value_args.append(self._materialize(arg, code))
            self._emit(
                code,
                MachineInst(
                    "probe",
                    probe_kind=probe_kind,
                    probe_id=probe_id,
                    args=tuple(value_args),
                ),
            )
            return

        arg_regs = tuple(self._materialize(a, code) for a in inst.args)
        if callee_name is not None:
            self._emit(
                code, MachineInst("call", dst=dst, sym=callee_name, args=arg_regs)
            )
        else:
            target = self._materialize(inst.callee, code)
            self._emit(
                code, MachineInst("icall", dst=dst, srcs=(target,), args=arg_regs)
            )

    # -- phi elimination ---------------------------------------------------------

    def _eliminate_phis(self, fn: Function) -> None:
        # The moves change no IR, so one map serves every block; it lists
        # predecessors in `fn.blocks` order, which numbers the temporaries.
        pred_map = None
        for block in fn.blocks:
            phis = block.phis()
            if not phis:
                continue
            if pred_map is None:
                pred_map = predecessor_map(fn)
            for pred in pred_map[block]:
                pred_code = self.block_code[self.block_ids[id(pred)]]
                moves: List[MachineInst] = []
                # Parallel copy via temporaries (handles phi swaps).
                temps: List[Tuple[int, int]] = []
                for phi in phis:
                    value = phi.incoming_for(pred)
                    tmp = self.new_reg()
                    src = self._materialize_into(value, moves, tmp)
                    temps.append((self.reg_for(phi), src))
                for phi_reg, tmp in temps:
                    moves.append(MachineInst("mov", dst=phi_reg, srcs=(tmp,), cost=1))
                # Insert before the terminator (last instruction).
                term_index = self._terminator_index(pred_code)
                pred_code[term_index:term_index] = moves

    def _materialize_into(
        self, value: Value, code: List[MachineInst], tmp: int
    ) -> int:
        """Like _materialize, but constants land in the given temp register."""
        if isinstance(value, ConstantInt):
            code.append(MachineInst("movi", dst=tmp, imm=value.value, cost=1))
            return tmp
        if isinstance(value, (NullPtr, UndefValue)):
            code.append(MachineInst("movi", dst=tmp, imm=0, cost=1))
            return tmp
        if isinstance(value, GlobalValue):
            code.append(MachineInst("lea", dst=tmp, sym=value.name, cost=1))
            return tmp
        if isinstance(value, AllocaInst):
            code.append(
                MachineInst("leaf", dst=tmp, imm=self.frame_offsets[id(value)], cost=1)
            )
            return tmp
        code.append(
            MachineInst("mov", dst=tmp, srcs=(self.reg_for(value),), cost=1)
        )
        return tmp

    @staticmethod
    def _terminator_index(code: List[MachineInst]) -> int:
        for i in range(len(code) - 1, -1, -1):
            if code[i].op in ("jmp", "brt", "switch", "ret", "trap"):
                return i
        return len(code)

    # -- layout and branch fixup -----------------------------------------------------

    def _layout(self, fn: Function) -> List[MachineInst]:
        insts: List[MachineInst] = []
        block_start: Dict[int, int] = {}
        for block_id, code in enumerate(self.block_code):
            block_start[block_id] = len(insts)
            insts.extend(code)
        for inst in insts:
            if inst.op in ("jmp", "brt"):
                inst.targets = tuple(block_start[t] for t in inst.targets)
            elif inst.op == "switch":
                inst.targets = (block_start[inst.targets[0]],)
                inst.table = tuple((v, block_start[t]) for v, t in inst.table)
        return insts

    # -- register allocation (cost model only) ------------------------------------------

    def _apply_regalloc(self, insts: List[MachineInst]) -> None:
        use_count: Dict[int, int] = {}
        for inst in insts:
            for reg in (inst.dst, *inst.srcs, *inst.args):
                if reg >= 0:
                    use_count[reg] = use_count.get(reg, 0) + 1
        hot = {
            reg
            for reg, _ in sorted(
                use_count.items(), key=lambda kv: (-kv[1], kv[0])
            )[:NUM_PHYS_REGS]
        }
        for inst in insts:
            spills = sum(
                1
                for reg in (inst.dst, *inst.srcs, *inst.args)
                if reg >= 0 and reg not in hot
            )
            inst.cost += spills * SPILL_PENALTY


def lower_function(fn: Function) -> MachineFunction:
    """Lower one IR function definition to machine code."""
    return _FunctionLowering(fn).run()
