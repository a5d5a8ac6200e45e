"""repro.ir — the typed SSA intermediate representation.

Public surface:

* types: I1 ... I64, PTR, VOID, ArrayType, FunctionType
* values: ConstantInt, ConstantData, GlobalVariable, GlobalAlias
* structure: Module, Function, BasicBlock
* construction: IRBuilder, build_function
* text: parse_module, print_module
* surgery: clone_module, extract_module
* checking: verify_module
"""

from repro.ir.analysis import (
    DominatorTree,
    bottom_up_sccs,
    call_graph,
    find_loops,
    predecessor_map,
    reachable_blocks,
)
from repro.ir.builder import IRBuilder, build_function, split_block
from repro.ir.clone import ClonedModule, ValueMap, clone_module, extract_module
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
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.types import (
    ArrayType,
    FunctionType,
    I1,
    I16,
    I32,
    I64,
    I8,
    IntType,
    PTR,
    Type,
    VOID,
)
from repro.ir.values import (
    Argument,
    Constant,
    ConstantArray,
    ConstantData,
    ConstantInt,
    GlobalAlias,
    GlobalValue,
    GlobalVariable,
    NullPtr,
    UndefValue,
    Value,
)
from repro.ir.verifier import verify_function, verify_module

__all__ = [
    "ArrayType", "FunctionType", "I1", "I8", "I16", "I32", "I64", "IntType",
    "PTR", "Type", "VOID",
    "Argument", "Constant", "ConstantArray", "ConstantData", "ConstantInt",
    "GlobalAlias", "GlobalValue", "GlobalVariable", "NullPtr", "UndefValue",
    "Value",
    "AllocaInst", "BinaryInst", "BranchInst", "CallInst", "CastInst",
    "FreezeInst", "GepInst", "IcmpInst", "Instruction", "LoadInst", "PhiInst",
    "RetInst", "SelectInst", "StoreInst", "SwitchInst", "UnreachableInst",
    "BasicBlock", "Function", "Module",
    "IRBuilder", "build_function", "split_block",
    "parse_module", "print_function", "print_module",
    "ClonedModule", "ValueMap", "clone_module", "extract_module",
    "verify_function", "verify_module",
    "DominatorTree", "bottom_up_sccs", "call_graph", "find_loops",
    "predecessor_map", "reachable_blocks",
]
