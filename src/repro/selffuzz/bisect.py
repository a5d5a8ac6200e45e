"""Pass-level replay and bisection for the selffuzz harness.

The -O2 pipeline is a *fixpoint loop* over a fixed pass list
(:func:`repro.opt.pipeline.optimize` runs ``run_until_fixpoint`` for at
most ``MAX_FIXPOINT_ITERS`` iterations), so "the pipeline" is really a
deterministic sequence of pass **invocations** — pass P at iteration K.
This module owns that flattening:

* :func:`run_o2_with_attribution` replays the exact fixpoint schedule on
  a module, verifying (and optionally probe-sanitizing) after every
  invocation, with every failure attributed to the offending invocation.
  Each invocation goes through :meth:`PassManager.run_pass` with one
  :class:`~repro.opt.pass_manager.RunRecord` for the replay, so it skips
  exactly the functions ``optimize`` skips;
* :func:`apply_o2_prefix` replays only the first *k* invocations — the
  primitive behind prefix bisection;
* :func:`bisect_divergence` pins the first invocation whose output
  diverges behaviourally from the -O0 ground truth: it maintains the
  invariant "prefix ``lo`` behaves like -O0, prefix ``hi`` does not" and
  narrows to the adjacent pair, so the reported pass is the one whose
  application flipped the behaviour even if a later pass would re-mask it.

Passes are deterministic, so replaying a prefix of length *k* lands on
byte-identical IR to the state the full run had after its *k*-th
invocation — that is what makes prefix replay a sound attribution tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.opt.pass_manager import (
    MAX_FIXPOINT_ITERS, OptContext, Pass, PassManager, RunRecord,
)
from repro.opt.pipeline import o2_pipeline

PipelineFactory = Callable[[], Sequence[Pass]]


def default_pipeline() -> Sequence[Pass]:
    """The real -O2 pass list (fresh instances — passes may hold state)."""
    return o2_pipeline().passes


@dataclass(frozen=True)
class PassInvocation:
    """One executed (pass, fixpoint-iteration) step of the -O2 schedule."""

    index: int        # 0-based position in the flattened schedule
    iteration: int    # fixpoint iteration the invocation ran in
    name: str
    changed: bool

    def describe(self) -> str:
        return f"#{self.index} {self.name} (iteration {self.iteration})"


class AttributedFailure(Exception):
    """A verifier/sanitizer/crash failure pinned to one pass invocation."""

    def __init__(self, kind: str, invocation: PassInvocation, detail: str,
                 diagnostics=None):
        self.kind = kind                  # "verifier" | "sanitizer" | "crash"
        self.invocation = invocation
        self.detail = detail
        self.pass_name = invocation.name
        self.diagnostics = list(diagnostics or [])
        super().__init__(f"{kind} after {invocation.describe()}: {detail}")


def run_o2_with_attribution(
    module: Module,
    *,
    pipeline: Optional[PipelineFactory] = None,
    sanitizer=None,
    max_invocations: Optional[int] = None,
) -> List[PassInvocation]:
    """Run the -O2 fixpoint schedule on *module* (in place), checking after
    every invocation.

    Raises :class:`AttributedFailure` on the first pass that crashes,
    breaks the IR verifier, or (when *sanitizer* is a
    :class:`~repro.analysis.sanitizer.ProbeIntegritySanitizer`) distorts a
    probe with error severity.  Returns the executed invocation schedule.
    ``max_invocations`` stops the replay after that many invocations —
    the prefix primitive.
    """
    manager = PassManager((pipeline or default_pipeline)())
    ctx = OptContext()
    record = RunRecord()
    schedule: List[PassInvocation] = []
    for iteration in range(MAX_FIXPOINT_ITERS):
        any_change = False
        for p in manager.passes:
            if max_invocations is not None and len(schedule) >= max_invocations:
                return schedule
            invocation = PassInvocation(len(schedule), iteration, p.name, False)
            try:
                changed = bool(manager.run_pass(p, module, ctx, iteration, record))
            except Exception as exc:
                raise AttributedFailure(
                    "crash", invocation, f"{type(exc).__name__}: {exc}"
                ) from exc
            invocation = PassInvocation(len(schedule), iteration, p.name, changed)
            schedule.append(invocation)
            any_change = any_change or changed
            try:
                verify_module(module)
            except Exception as exc:
                raise AttributedFailure("verifier", invocation, str(exc)) from exc
            if sanitizer is not None:
                findings = sanitizer.advance(p.name)
                errors = [d for d in findings if d.is_error]
                if errors:
                    raise AttributedFailure(
                        "sanitizer", invocation,
                        "; ".join(str(d) for d in errors), errors,
                    )
        if not any_change:
            break
    return schedule


def apply_o2_prefix(
    module: Module,
    k: int,
    *,
    pipeline: Optional[PipelineFactory] = None,
) -> List[PassInvocation]:
    """Apply exactly the first *k* invocations of the -O2 schedule."""
    return run_o2_with_attribution(module, pipeline=pipeline, max_invocations=k)


@dataclass(frozen=True)
class BisectResult:
    """Outcome of a prefix bisection."""

    pass_name: str
    invocation: PassInvocation
    schedule_length: int

    def describe(self) -> str:
        return (
            f"first divergence after {self.invocation.describe()} "
            f"of {self.schedule_length} invocations"
        )


def bisect_divergence(
    fresh_module: Callable[[], Module],
    diverges: Callable[[Module], bool],
    *,
    pipeline: Optional[PipelineFactory] = None,
) -> Optional[BisectResult]:
    """Pin the first pass invocation whose output behaviourally diverges.

    *fresh_module* must return a new unoptimized module each call;
    *diverges* judges a (partially) optimized module against the -O0
    ground truth.  Returns ``None`` if even the full schedule does not
    diverge (e.g. the divergence needed the backend, not the middle end).
    """
    probe = fresh_module()
    schedule = apply_o2_prefix(probe, 10**9, pipeline=pipeline)
    total = len(schedule)
    if not diverges(probe):
        return None

    def diverges_at(k: int) -> bool:
        module = fresh_module()
        apply_o2_prefix(module, k, pipeline=pipeline)
        return diverges(module)

    # Invariant: prefix `lo` matches -O0, prefix `hi` diverges.
    lo, hi = 0, total
    if diverges_at(0):  # the "empty" prefix cannot diverge by definition
        raise RuntimeError("module diverges before any pass ran")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diverges_at(mid):
            hi = mid
        else:
            lo = mid
    culprit = schedule[hi - 1]
    return BisectResult(culprit.name, culprit, total)
