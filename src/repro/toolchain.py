"""End-to-end toolchain conveniences.

``build(source)`` is the whole classic pipeline in one call:
MiniC -> IR -> optimize -> lower -> link -> executable.  This is the
"normal compiler" path; Odin's on-the-fly path lives in
:mod:`repro.core.engine` and shares every stage below the frontend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.backend.isel import lower_module
from repro.frontend.codegen import compile_source
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.linker.linker import Executable, link
from repro.opt.pipeline import optimize
from repro.vm.interpreter import ExecutionResult, VM


@dataclass
class BuildResult:
    """Artifacts of a classic whole-program build."""

    module: Module
    executable: Executable
    compile_ms: float
    link_ms: float


def compile_ir(source: str, name: str = "program") -> Module:
    """MiniC source -> verified, unoptimized IR module."""
    module = compile_source(source, name)
    verify_module(module)
    return module


def build_module(module: Module, opt_level: int = 2) -> BuildResult:
    """Optimize, lower and link an IR module (mutates the module)."""
    from repro.backend.costmodel import compile_cost_ms

    pre_opt_cost = compile_cost_ms(module)
    optimize(module, opt_level)
    verify_module(module)
    obj = lower_module(module)
    obj.compile_ms = pre_opt_cost
    exe = link([obj])
    return BuildResult(module, exe, obj.compile_ms, exe.link_ms)


def build(source: str, name: str = "program", opt_level: int = 2) -> BuildResult:
    """Full pipeline: MiniC source to a linked executable."""
    return build_module(compile_ir(source, name), opt_level)


def run_source(
    source: str,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    opt_level: int = 2,
    **vm_kwargs,
) -> ExecutionResult:
    """Compile and execute in one step (tests and examples)."""
    result = build(source, opt_level=opt_level)
    return VM(result.executable, **vm_kwargs).run(entry, args)
