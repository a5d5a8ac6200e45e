"""Shared fixtures and helpers for the test suite.

Compiling the target programs is the expensive part of testing, so
session-scoped caches hand out *pristine clones*: tests receive a fresh
deep copy of each compiled module and can mutate freely.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import settings

from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.programs.registry import TargetProgram, all_programs, get_program
from repro.toolchain import build_module
from repro.vm.interpreter import VM

# The nightly CI sweep runs the parser's token property with 20 times
# tier-1's example count: ``pytest --hypothesis-profile=nightly``.  A test
# that should widen with it leaves ``max_examples`` unset.
settings.register_profile("nightly", max_examples=20 * settings.default.max_examples)

_MODULE_CACHE: Dict[str, Module] = {}
_BUILD_CACHE: Dict[Tuple[str, int], object] = {}


def fresh_module(program_name: str) -> Module:
    """A fresh unoptimized IR module for a benchmark program (cached parse)."""
    if program_name not in _MODULE_CACHE:
        _MODULE_CACHE[program_name] = get_program(program_name).compile()
    return clone_module(_MODULE_CACHE[program_name]).module


def cached_build(program_name: str, opt_level: int = 2):
    """A (shared, read-only) classic build of a benchmark program."""
    key = (program_name, opt_level)
    if key not in _BUILD_CACHE:
        _BUILD_CACHE[key] = build_module(fresh_module(program_name), opt_level)
    return _BUILD_CACHE[key]


def run_entry(executable, entry: str, data: bytes, **vm_kwargs):
    """Run ``entry(data, len)`` in a fresh VM; returns the ExecutionResult."""
    vm = VM(executable, **vm_kwargs)
    addr = vm.alloc(max(len(data), 1) + 1)
    vm.write_bytes(addr, data)
    return vm.run(entry, (addr, len(data)), reset=False)


@pytest.fixture(scope="session")
def program_names() -> List[str]:
    return [p.name for p in all_programs()]


@pytest.fixture
def json_program() -> TargetProgram:
    return get_program("json")


@pytest.fixture
def json_module() -> Module:
    return fresh_module("json")


@pytest.fixture
def harfbuzz_module() -> Module:
    return fresh_module("harfbuzz")
