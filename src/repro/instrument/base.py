"""Shared scaffolding for probe-family tools.

Every instrumentation scheme in :mod:`repro.instrument` wraps an
:class:`~repro.core.engine.Odin` engine with the same furniture: a probe
registry, an initial instrumented build, a VM factory that installs the
scheme's probe runtime, and a profile-sync loop mapping runtime counters
back onto probe annotations (§1: profiles are first-class probe state).
That used to be copy-pasted per tool; :class:`SanitizerTool` owns it
once, so variant families (run-time partitioned sanitization,
:mod:`repro.variants`) can enumerate probe tools uniformly — build any
tool, fan its runtime into a composite, flip its probes per symbol —
without knowing which sanitizer they are holding.

Subclasses provide probe installation (``add_all_*``) and override the
two profile hooks:

* :meth:`profile_counts` — counters accumulated since the last sync,
  keyed by probe id;
* :meth:`clear_profile_counts` — reset those runtime counters.
"""

from __future__ import annotations

from typing import Dict, Optional, TypeVar

from repro.core.engine import Odin, RebuildReport
from repro.core.probe import Probe
from repro.core.probeset import ProbeSet, SyncOutcome
from repro.vm.interpreter import ProbeRuntime, VM

P = TypeVar("P", bound=Probe)


class SanitizerTool:
    """Base tool: engine + runtime + probes + the shared loops."""

    #: Probe annotation attribute the profile-sync loop accumulates into.
    profile_attr = "hits"

    #: Probe family this tool installs (mirrors its probes' ``family``).
    family = ""

    def __init__(self, engine: Odin, runtime: ProbeRuntime):
        self.engine = engine
        self.runtime = runtime
        self.probes: ProbeSet = ProbeSet(engine.manager, family=self.family)
        #: Lifetime tally of counter events whose probe was gone by sync
        #: time (pruned or de-instrumented mid-window); surfaced by the
        #: profiling report instead of silently vanishing.
        self.unattributed = 0

    def register(self, probe: P) -> P:
        """Register *probe* with the engine and track it in this tool."""
        return self.probes.register(probe)

    # -- builds -----------------------------------------------------------------

    def build(self) -> RebuildReport:
        """Initial instrumented build."""
        return self.engine.initial_build()

    def make_vm(self, extra_runtime: Optional[ProbeRuntime] = None, **kwargs) -> VM:
        """VM over the current executable with this tool's runtime
        installed; *extra_runtime* (e.g. a CmpLog collector) is fanned in
        next to it."""
        from repro.vm.interpreter import CompositeProbeRuntime

        runtime = self.runtime
        if extra_runtime is not None:
            runtime = CompositeProbeRuntime(self.runtime, extra_runtime)
        return VM(self.engine.executable, probe_runtime=runtime, **kwargs)

    # -- profiles ---------------------------------------------------------------

    def profile_counts(self) -> Dict[int, int]:
        """Runtime counters since the last sync (probe id -> count)."""
        return {}

    def clear_profile_counts(self) -> None:
        """Reset the runtime counters consumed by :meth:`sync_profiles`."""

    def sync_profiles(self, clear: bool = True) -> SyncOutcome:
        """Accumulate runtime counters onto probe annotations.

        With ``clear`` (the default) the runtime counters are reset so
        the next sync sees only new activity; pass ``clear=False`` when
        the caller still needs the raw counters (e.g. coverage pruning
        reads the covered set after syncing).

        Counters whose probe id is no longer registered (pruned or
        removed between counting and sync) are folded into the lifetime
        :attr:`unattributed` tally rather than discarded.
        """
        outcome = self.probes.sync_counts(
            self.profile_counts(), self.profile_attr
        )
        self.unattributed += outcome.unattributed
        if clear:
            self.clear_profile_counts()
        return outcome

    # -- probe state ------------------------------------------------------------

    def set_symbol_probes_enabled(self, symbol: str, enabled: bool) -> int:
        """Enable/disable every *registered* probe of this tool targeting
        *symbol*; returns how many probes changed state.

        The profiling controller de- and re-instruments hot functions
        with this: flipping the probes marks their fragment dirty, and
        the next ``rebuild_if_needed()`` recompiles just that fragment —
        at the stage-1 patch tier when the probes are patchable, so the
        sites stay compiled in.  PartiSan removes probes instead
        (:meth:`~repro.variants.builder.VariantBuilder.deinstrument_symbol`).
        """
        return self.probes.set_symbol_enabled(symbol, enabled)
