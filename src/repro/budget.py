"""One windowed overhead-budget loop, with the actuators behind it.

Odin's on-the-fly recompilation lets a run remove and restore
instrumentation while it executes; Kreutzer et al.'s runtime-adaptable
selective instrumentation (PAPERS.md) splits the control problem that
follows into one measuring loop and a small actuator.  This module is
the loop, shared by both of the repo's budgeted subsystems:

* :class:`BudgetLoop` windows executions, scores each window's cycles
  against the clean baseline of the same inputs, and at every window
  close publishes ``<prefix>.window.overhead``,
  ``<prefix>.lifetime.overhead`` and ``<prefix>.windows`` (plus
  ``<prefix>.exec.cycles`` per execution) before handing the window to
  its actuator;
* the actuators are subclasses:
  :class:`repro.variants.controller.BudgetController` (PartiSan: rescale
  the variant mix, de-instrument hot functions) and
  :class:`repro.profile.controller.ProfileOverheadController` (greedy
  patch-tier toggles of profiling probes);
* :func:`seed_inputs`, :func:`baseline_cycles` and :func:`replay` are
  the runner steps both front doors share.

Convergence is judged the same way for both: the mean of the last
:data:`CONVERGENCE_WINDOWS` windows inside ``target * (1 ± TOLERANCE)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.fuzz.executor import run_input
from repro.linker.linker import Executable
from repro.obs.metrics import MetricsRegistry
from repro.programs.registry import TargetProgram
from repro.vm.interpreter import ExecutionResult, VM

#: Relative band around the target counting as converged.
TOLERANCE = 0.25
#: Windows averaged when judging convergence (one window of a
#: stochastic mix is far too noisy to score on).
CONVERGENCE_WINDOWS = 3


@dataclass(frozen=True)
class BudgetConfig:
    #: The budget: target fractional slowdown over the clean baseline.
    target_overhead: float = 0.25
    #: Executions per control window.
    window: int = 30
    #: Symbols the actuator must never de-instrument — typically the
    #: entry points: monolithic programs inline everything into them,
    #: and stripping the entry would switch instrumentation off wholesale.
    protected: FrozenSet[str] = frozenset()

    def __post_init__(self):
        if self.target_overhead <= 0:
            raise ValueError("target_overhead must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @property
    def band(self) -> Tuple[float, float]:
        """(lo, hi) overhead band the loop steers into."""
        return (
            self.target_overhead * (1.0 - TOLERANCE),
            self.target_overhead * (1.0 + TOLERANCE),
        )


@dataclass
class BudgetWindow:
    """One closed control window and what the actuator did at its close."""

    index: int
    executions: int
    achieved_overhead: float
    deinstrumented: List[str] = field(default_factory=list)
    reinstrumented: List[str] = field(default_factory=list)
    #: The dispatch mix after the close (variant actuator only).
    mix: Dict[str, float] = field(default_factory=dict)
    #: Tier of the rebuild the actuation ran (probe-toggle actuator only).
    rebuild_tier: Optional[str] = None

    @property
    def summary(self) -> str:
        parts = [f"window {self.index}: overhead {self.achieved_overhead:+.3f}"]
        if self.mix:
            weights = ", ".join(f"{k}={v:.2f}" for k, v in self.mix.items())
            parts.append(f"mix {{{weights}}}")
        if self.deinstrumented:
            parts.append(f"deinstrumented {', '.join(self.deinstrumented)}")
        if self.reinstrumented:
            parts.append(f"reinstrumented {', '.join(self.reinstrumented)}")
        if self.rebuild_tier:
            parts.append(f"tier={self.rebuild_tier}")
        return "; ".join(parts)


class BudgetLoop:
    """Windows executions against the clean baseline; subclasses actuate.

    A subclass sets :attr:`prefix` and implements :meth:`_actuate`, which
    sees every closed window before it is recorded.
    """

    #: Metric namespace (``partisan``, ``profile``).
    prefix: str

    def __init__(
        self,
        config: Optional[BudgetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else BudgetConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.windows: List[BudgetWindow] = []
        self.total_cycles = 0
        self.total_baseline = 0
        self._win_cycles = 0
        self._win_baseline = 0
        self._win_execs = 0

    # -- feeding ----------------------------------------------------------------

    def record_execution(
        self, cycles: int, baseline_cycles: int, family: Optional[str] = None
    ) -> None:
        """Account one finished execution; *baseline_cycles* is the clean
        standalone cost of the same input.  *family* (PartiSan's
        per-execution mode) attributes the cost to one variant as
        ``<prefix>.cost.<family>``.
        """
        self.total_cycles += cycles
        self.total_baseline += baseline_cycles
        self._win_cycles += cycles
        self._win_baseline += baseline_cycles
        self._win_execs += 1
        self.metrics.observe(f"{self.prefix}.exec.cycles", float(cycles))
        if family is not None and baseline_cycles > 0:
            self.metrics.observe(
                f"{self.prefix}.cost.{family}", cycles / baseline_cycles
            )
        if self._win_execs >= self.config.window:
            self._close_window()

    # -- read-backs -------------------------------------------------------------

    @property
    def achieved_overhead(self) -> float:
        """Lifetime fractional slowdown vs. the clean baseline."""
        if not self.total_baseline:
            return 0.0
        return self.total_cycles / self.total_baseline - 1.0

    @property
    def last_window_overhead(self) -> Optional[float]:
        return self.windows[-1].achieved_overhead if self.windows else None

    @property
    def converged(self) -> bool:
        """Is the recent-window mean overhead inside the tolerance band,
        or at a fixed point the actuator accepts (:meth:`_settled`)?"""
        recent = self.windows[-CONVERGENCE_WINDOWS:]
        if not recent:
            return False
        mean = sum(w.achieved_overhead for w in recent) / len(recent)
        target = self.config.target_overhead
        return abs(mean - target) <= TOLERANCE * target or self._settled(mean)

    def _settled(self, mean: float) -> bool:
        """Does the actuator accept a recent mean outside the band?"""
        return False

    # -- the control step -------------------------------------------------------

    def _close_window(self) -> None:
        achieved = (
            self._win_cycles / self._win_baseline - 1.0
            if self._win_baseline
            else 0.0
        )
        self.metrics.set_gauge(f"{self.prefix}.window.overhead", achieved)
        self.metrics.set_gauge(
            f"{self.prefix}.lifetime.overhead", self.achieved_overhead
        )
        self.metrics.inc(f"{self.prefix}.windows")
        window = BudgetWindow(len(self.windows), self._win_execs, achieved)
        self._actuate(window)
        self.windows.append(window)
        self._win_cycles = 0
        self._win_baseline = 0
        self._win_execs = 0

    def _actuate(self, window: BudgetWindow) -> None:
        """Act on a closed window (the window's counters are still live),
        note the actuation on *window*, and snapshot whatever the next
        window's deltas are measured from."""
        raise NotImplementedError


# -- the runner steps both front doors share ----------------------------------


def seed_inputs(program: TargetProgram, seed: int, max_inputs: int) -> List[bytes]:
    """The seed-corpus inputs a budget run cycles through."""
    inputs = program.seeds(seed)[:max_inputs]
    if not inputs:
        raise ValueError(f"program {program.name!r} has an empty seed corpus")
    return inputs


def baseline_cycles(executable: Executable, inputs: Sequence[bytes]) -> List[int]:
    """Each input's cycles on *executable*, a fresh VM per input — run on
    the clean build, what "no instrumentation" costs."""
    return [run_input(VM(executable), data).cycles for data in inputs]


def replay(
    inputs: Sequence[bytes],
    baseline: Sequence[int],
    executions: int,
    make_vm: Callable[[], VM],
    image: Callable[[], Optional[Executable]],
) -> Iterator[Tuple[ExecutionResult, int]]:
    """Run *executions* inputs round-robin, yielding each result with its
    clean baseline cycles.  When an actuation relinked the image between
    two executions (``image()`` is no longer the VM's), the next one runs
    on a new VM from *make_vm*."""
    vm = make_vm()
    for i in range(executions):
        if vm.exe is not image():
            vm = make_vm()
        yield run_input(vm, inputs[i % len(inputs)]), baseline[i % len(inputs)]
