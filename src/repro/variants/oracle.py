"""Clean-dispatch equivalence: the subsystem's differential check.

The safety argument for co-resident variants is that the dispatch layer
adds *mechanism*, not *behaviour*: with every call routed to the clean
family and a zero dispatch tax, a partitioned image must be
indistinguishable from the plain uninstrumented build.  This oracle
makes that falsifiable, in the style of :mod:`repro.check.oracle`:

* **image layer** — the clean family engine's linked image has the same
  fingerprint as an independently built uninstrumented engine's;
* **behaviour layer** — over the seed corpus, exit code, stdout, trap
  and the exact cycle count match between the baseline VM and a VM
  running the merged image through a clean-pinned selector.

Cycles matching *exactly* is the strong claim: the clean family sits at
offset 0 of the merged table, so dispatch resolves every call to the
very same function indices the baseline executes — any drift means the
merge re-ordered or rewrote something it should not have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED, run_input
from repro.programs.registry import TargetProgram
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import MODE_PER_CALL, VariantSelector
from repro.vm.interpreter import VM


@dataclass
class CleanDispatchReport:
    """Outcome of one program's clean-dispatch equivalence check."""

    program: str
    inputs: int = 0
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.program}: ERROR {self.error}"
        status = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"{self.program}: clean-dispatch equivalence over "
            f"{self.inputs} inputs, {status}"
        )


def check_clean_dispatch(
    program: TargetProgram,
    *,
    seed: int = 0,
    max_inputs: int = 6,
) -> CleanDispatchReport:
    """Prove clean-only dispatch equals the uninstrumented baseline."""
    report = CleanDispatchReport(program.name)
    try:
        inputs = program.seeds(seed)[:max_inputs]
        if not inputs:
            raise ValueError("empty seed corpus")
        report.inputs = len(inputs)

        # Independent uninstrumented baseline: fresh engine, no probes.
        baseline = Odin(program.compile(), preserve=PRESERVED)
        baseline.initial_build()

        builder = VariantBuilder(program.compile, preserve=PRESERVED)
        builder.build()

        # Image layer: the clean family is the uninstrumented build.
        clean_fp = builder.build_for(
            builder.spec.default
        ).engine.executable_fingerprint()
        base_fp = baseline.executable_fingerprint()
        if clean_fp != base_fp:
            report.mismatches.append(
                f"clean family image differs from uninstrumented build "
                f"({str(clean_fp)[:12]} != {str(base_fp)[:12]})"
            )

        # Behaviour layer: merged image + clean-pinned dispatch.
        selector = VariantSelector(
            {builder.spec.default: 1.0}, seed=seed, mode=MODE_PER_CALL
        )
        for data in inputs:
            base = run_input(VM(baseline.executable), data)
            vm = builder.make_vm(selector=selector, dispatch_tax=0)
            routed = run_input(vm, data)
            for name in ("exit_code", "stdout", "trap", "cycles"):
                a = getattr(base, name)
                b = getattr(routed, name)
                if a != b:
                    report.mismatches.append(
                        f"input {data[:16]!r}: {name} differs "
                        f"(baseline {a!r} != clean-dispatch {b!r})"
                    )
    except Exception as error:  # surface, do not crash the sweep
        report.error = f"{type(error).__name__}: {error}"
    return report
