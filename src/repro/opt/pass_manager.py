"""Pass manager with trial-run requirement logging.

§3.2: the partitioner's symbol classification "requirements are collected
from a trial optimization run, where the compiler passes (modified by Odin)
log the requirements for later inspection".  Passes receive an
:class:`OptContext`; when ``ctx.trial`` is set they record a
:class:`Requirement` every time an optimization needs two symbols to be
visible together:

* ``bond``        — interprocedural: *subject* must be defined together with
                    *peer* (dead-arg-elim pairs, inlining pairs)
* ``copy_on_use`` — local: *subject* (a constant) should be cloned into any
                    fragment that references it (libcall rewrites that
                    inspect a string constant)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.ir.instructions import CallInst
from repro.ir.module import Function, Module
from repro.ir.verifier import verify_module

if False:  # pragma: no cover - typing only, avoids loading analysis eagerly
    from repro.analysis.diagnostics import Diagnostic

REQ_BOND = "bond"
REQ_COPY_ON_USE = "copy_on_use"

#: Iteration bound of the -O2 fixpoint loop (``optimize(level=2)``).
MAX_FIXPOINT_ITERS = 4


@dataclass(frozen=True)
class Requirement:
    """One logged optimization requirement from a trial run."""

    kind: str        # REQ_BOND or REQ_COPY_ON_USE
    subject: str     # symbol the requirement is about
    peer: str        # the symbol that must be co-located / the user
    pass_name: str   # which pass logged it


@dataclass(frozen=True)
class PassTiming:
    """One pass invocation: charged work units + real duration.

    The observability layer turns these into per-pass spans: each pass's
    share of the fragment's simulated middle-end cost is its share of
    the pipeline's total charged work (real_ms rides along untouched).
    """

    pass_name: str
    iteration: int
    work: int
    real_ms: float
    changed: bool


@dataclass
class OptContext:
    """State threaded through every pass invocation."""

    trial: bool = False
    requirements: List[Requirement] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    # Number of "units of work" performed; drives the compile-time model.
    work: int = 0
    # Probe-integrity findings collected by ``sanitize_each`` pipelines.
    diagnostics: List["Diagnostic"] = field(default_factory=list)
    # Per-pass timing records, in execution order (observability layer).
    pass_timings: List[PassTiming] = field(default_factory=list)

    def log_requirement(self, kind: str, subject: str, peer: str, pass_name: str) -> None:
        if self.trial:
            self.requirements.append(Requirement(kind, subject, peer, pass_name))

    def count(self, stat: str, n: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + n

    def charge(self, units: int) -> None:
        self.work += units


class RunRecord:
    """What one fixpoint run carries from one pass invocation to the next
    (DESIGN §5.12, "Clean runs").

    * the clean pairs: for each function, the names of the function
      passes whose last run on it reported no change.  A later
      invocation of a pass with such a name skips the function, whose
      outcome is known: a change any pass makes to the function takes it
      out for every name.  Function passes, inline and dae name the
      functions they changed; any other module pass that reports a
      change clears them all;
    * ``inline_history``: for each call the inliner cloned during the
      run, the callees whose bodies it came from (``opt/inline.py``).
      It is never cleared: a call keeps its history for the whole run.
    """

    def __init__(self) -> None:
        self._clean: Dict[Function, Set[str]] = {}
        self.inline_history: Dict[CallInst, FrozenSet[Function]] = {}

    def is_clean(self, pass_name: str, fn: Function) -> bool:
        return pass_name in self._clean.get(fn, ())

    def mark_clean(self, pass_name: str, fn: Function) -> None:
        self._clean.setdefault(fn, set()).add(pass_name)

    def changed(self, fn: Function) -> None:
        self._clean.pop(fn, None)

    def clear(self) -> None:
        self._clean.clear()


class Pass:
    """Base class: a named module transformation."""

    name = "pass"

    def run(self, module: Module, ctx: OptContext) -> bool:
        """Transform *module* in place; return True if anything changed."""
        raise NotImplementedError

    def run_in(self, module: Module, ctx: OptContext, record: RunRecord) -> bool:
        """One invocation inside a fixpoint run that keeps *record*.  A
        pass that does not say which functions it changed may have
        rewritten any of them, or the facts they read, so its change
        clears the record's clean pairs."""
        changed = self.run(module, ctx)
        if changed:
            record.clear()
        return changed


class FunctionPass(Pass):
    """A pass that processes one function at a time.

    It may read only its own function and the module's immutable facts,
    and it must report every change it makes: the clean pairs of a
    :class:`RunRecord` rest on both.
    """

    def run(self, module: Module, ctx: OptContext) -> bool:
        return self.run_in(module, ctx, RunRecord())

    def run_in(self, module: Module, ctx: OptContext, record: RunRecord) -> bool:
        changed = False
        for fn in module.defined_functions():
            ctx.charge(fn.count_instructions())
            if record.is_clean(self.name, fn):
                continue
            if self.run_on_function(fn, module, ctx):
                record.changed(fn)
                changed = True
            else:
                record.mark_clean(self.name, fn)
        return changed

    def run_on_function(self, fn, module: Module, ctx: OptContext) -> bool:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of passes, optionally checking between passes.

    * ``verify_each`` re-verifies IR structure after every pass and
      re-raises the failure attributed to the offending pass;
    * ``sanitize_each`` runs the probe-integrity sanitizer after every
      pass and collects its findings into ``ctx.diagnostics`` (reports,
      not exceptions — see :mod:`repro.analysis.sanitizer`).
    """

    def __init__(
        self,
        passes: List[Pass],
        *,
        verify_each: bool = False,
        sanitize_each: bool = False,
    ):
        self.passes = list(passes)
        self.verify_each = verify_each
        self.sanitize_each = sanitize_each

    def _make_sanitizer(self, module: Module):
        if not self.sanitize_each:
            return None
        from repro.analysis.sanitizer import ProbeIntegritySanitizer

        return ProbeIntegritySanitizer(module)

    def _after_pass(self, module: Module, p: Pass, ctx: OptContext,
                    sanitizer) -> None:
        """Post-pass checks, every failure attributed to pass *p*."""
        if self.verify_each:
            try:
                verify_module(module)
            except Exception as exc:  # re-raise with pass attribution
                wrapped = type(exc)(f"after pass {p.name!r}: {exc}")
                wrapped.pass_name = p.name
                raise wrapped from exc
        if sanitizer is not None:
            ctx.diagnostics.extend(sanitizer.advance(p.name))

    def run_pass(
        self, p: Pass, module: Module, ctx: OptContext, iteration: int,
        record: RunRecord,
    ) -> bool:
        """Run one invocation of the fixpoint run that keeps *record*,
        recording its charged work and real duration."""
        work_before = ctx.work
        start = time.perf_counter()
        changed = p.run_in(module, ctx, record)
        ctx.pass_timings.append(
            PassTiming(
                pass_name=p.name,
                iteration=iteration,
                work=ctx.work - work_before,
                real_ms=(time.perf_counter() - start) * 1000.0,
                changed=changed,
            )
        )
        if changed:
            ctx.count(f"pass.{p.name}.changed")
        return changed

    def run(self, module: Module, ctx: Optional[OptContext] = None) -> OptContext:
        """Run the pipeline once."""
        return self.run_until_fixpoint(module, ctx, max_iters=1)

    def run_until_fixpoint(
        self, module: Module, ctx: Optional[OptContext] = None,
        max_iters: int = MAX_FIXPOINT_ITERS,
    ) -> OptContext:
        """Repeat the pipeline until no pass reports changes (bounded)."""
        ctx = ctx or OptContext()
        sanitizer = self._make_sanitizer(module)
        record = RunRecord()
        for iteration in range(max_iters):
            any_change = False
            for p in self.passes:
                if self.run_pass(p, module, ctx, iteration, record):
                    any_change = True
                self._after_pass(module, p, ctx, sanitizer)
            if not any_change:
                break
        return ctx
