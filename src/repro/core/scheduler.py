"""Scheduling recompilation (§3.3, Algorithm 2, Figure 7).

Three-stage propagation:

1. *probes -> symbols*: every dirty probe marks its target symbol changed;
2. *symbols -> fragments*: a fragment containing any changed symbol is
   recompiled whole, so all of its symbols join the changed set;
3. *fragments -> probes* (back propagation): recompiling a fragment wipes
   its previous instrumentation, so every **active** probe targeting any
   symbol in it must be re-applied — not only the dirty ones.  This runs
   once, not to convergence: it only adds unchanged probes whose
   fragments' caches are still valid for reuse.

Then a temporary IR is extracted that defines every changed symbol;
after the user's patch logic instruments it (``apply_probes`` or manual
iteration over ``active_probes`` with ``map()``), ``rebuild()`` splits it
back into per-fragment modules, optimizes, lowers, and relinks.

**Stage-1 classification (the tiered fast path).**  The scheduler is
the one place a rebuild is decided: :func:`classify` runs once, over
every dirty fragment, comparing its live probes with the state its
linked objects were built for.  A fragment recompiles when it was never
built, carries external dirt (symbols marked without a probe, as the
initial build does) or a probe marked changed, or when its compiled-in
probe set differs (a probe added or removed, a non-patchable probe
flipped).  Otherwise only patchable sites changed state: the fragment
is diverted to ``patched_fragments`` and serviced by deleting or
restoring probe sites in the cached master (`repro.backend.patching`),
or skipped outright when its sites all match its current toggle.  With
patching disabled a rebuild that is effective at all recompiles every
dirty fragment; one that is not diverts them all, so a cancelled diff
schedules no fragment and the engine answers it with a zero-cost no-op.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.core.partition import Fragment
from repro.core.probe import Probe
from repro.errors import ScheduleError
from repro.ir.clone import extract_module_ex
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import FunctionType
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Odin, RebuildReport


class FragmentState(NamedTuple):
    """The probe state one fragment's objects are built for."""

    #: Probe id -> whether its site is compiled in (enabled, or patchable).
    compiled: Dict[int, bool]
    #: Patchable sites the current toggle deletes (disabled probes).
    disabled: frozenset

    @classmethod
    def of(cls, probes: List[Probe]) -> "FragmentState":
        return cls(
            {p.id: p.enabled or p.patchable for p in probes},
            frozenset([p.id for p in probes if p.patchable and not p.enabled]),
        )


def classify(
    engine: "Odin",
) -> Iterator[Tuple[Fragment, List[Probe], FragmentState, Optional[frozenset]]]:
    """Decide each dirty fragment against the state it was built for.

    Yields ``(fragment, live probes, live state, flips)`` in fragment
    order.  *flips* is None when the fragment must recompile: it has no
    built state, or it carries external dirt or a probe marked changed,
    or its compiled-in probe set differs from the built one.  Otherwise
    it is the set of patchable sites whose state differs from the
    current toggle: the patch, or a skip when empty.
    """
    manager = engine.manager
    fragdef = engine.fragdef
    external = manager.external_dirty_symbols()
    changed = manager.changed_probe_ids()
    owner = fragdef.owner
    for fid in sorted({owner[s] for s in manager.dirty_symbols() if s in owner}):
        fragment = fragdef.fragments[fid]
        probes = manager.probes_on(fragment.symbols)
        live = FragmentState.of(probes)
        built = engine._built.get(fid)
        if (
            built is None
            or not external.isdisjoint(fragment.symbols)
            or not changed.isdisjoint(live.compiled)
            or live.compiled != built.compiled
        ):
            yield fragment, probes, live, None
        else:
            yield fragment, probes, live, live.disabled ^ built.disabled


class Scheduler:
    """One scheduled recompilation: temporary IR + the probes to apply."""

    def __init__(self, engine: "Odin"):
        self.engine = engine
        self.manager = manager = engine.manager
        schedule_start = time.perf_counter()

        # Stages 1 and 2 (probes -> symbols -> fragments), decided once per
        # dirty fragment: a patched or skipped fragment leaves the changed
        # symbols, a recompiled one joins them whole.  With patching off,
        # a rebuild that is effective at all recompiles every dirty
        # fragment.  `states` holds the probe state each patched or
        # recompiled fragment is rebuilt for (its toggle's disabled set
        # included); `patch_touched` the number of sites a patch flips
        # (the cost driver); `patch_families` the families of those
        # probes, to which rebuild reports attribute the patch.
        decisions = list(classify(engine))
        divert = engine.enable_patching or all(
            flips == frozenset() for *_, flips in decisions
        )
        changed_symbols: Set[str] = manager.dirty_symbols()
        self.states: Dict[int, FragmentState] = {}
        self.patched_fragments: List[Fragment] = []
        self.patch_touched: Dict[int, int] = {}
        self.patch_families: Dict[int, frozenset] = {}
        self.changed_fragments: List[Fragment] = []
        # Stage 3: fragments -> probes (back propagation).  What gets
        # instrumented into the temporary IR: active probes plus
        # *disabled patchable* ones.  Sites-always-compiled — every tier
        # realizes enable/disable by toggling sites in the compiled
        # master, so the master must carry every patchable site
        # regardless of its current state.  `applied_on` holds them per
        # fragment, for its content key and its report families.
        self.applied_on: Dict[int, List[Probe]] = {}
        for fragment, probes, live, flips in decisions:
            if flips is not None and divert:
                changed_symbols.difference_update(fragment.symbols)
                if flips:
                    self.patched_fragments.append(fragment)
                    self.states[fragment.id] = live
                    self.patch_touched[fragment.id] = len(flips)
                    families = {manager.get_probe(i).family for i in flips}
                    self.patch_families[fragment.id] = frozenset(
                        family for family in families if family
                    )
                continue
            self.changed_fragments.append(fragment)
            changed_symbols.update(fragment.symbols)
            self.states[fragment.id] = live
            self.applied_on[fragment.id] = [
                p for p in probes if p.enabled or p.patchable
            ]
        self.changed_symbols = changed_symbols
        self.applied_probes: List[Probe] = sorted(
            (p for applied in self.applied_on.values() for p in applied),
            key=lambda p: p.id,
        )
        self.active_probes: List[Probe] = [
            p for p in self.applied_probes if p.enabled
        ]

        # Observability: real durations of schedule / extract / instrument,
        # consumed by the engine when it builds the rebuild span tree.
        self.schedule_real_ms = (time.perf_counter() - schedule_start) * 1000.0
        self.instrument_real_ms = 0.0

        # Temporary IR covering all changed symbols (Figure 7).
        extract_start = time.perf_counter()
        if changed_symbols:
            self._temp, self._vmap = extract_module_ex(
                engine.module,
                sorted(changed_symbols),
                copy_on_use=engine.fragdef.copy_on_use,
                name=f"{engine.module.name}.patch",
            )
        else:
            self._temp, self._vmap = Module(f"{engine.module.name}.patch"), None
        self.extract_real_ms = (time.perf_counter() - extract_start) * 1000.0
        self._rebuilt = False

    # -- the user-facing mapping API (§4) ------------------------------------------

    @property
    def temp_module(self) -> Module:
        """The temporary IR the patch logic instruments."""
        return self._temp

    def map(self, original: Value) -> Value:
        """Translate an original-IR value into the temporary IR."""
        if self._vmap is None:
            raise ScheduleError("nothing was scheduled; the mapping is empty")
        return self._vmap.get(original)

    def map_block(self, original: BasicBlock) -> BasicBlock:
        if self._vmap is None:
            raise ScheduleError("nothing was scheduled; the mapping is empty")
        return self._vmap.get_block(original)

    def lookup_function(self, name: str) -> Function:
        """Find a function in the temporary IR by name (runtime hooks)."""
        symbol = self._temp.get(name)
        if not isinstance(symbol, Function):
            raise ScheduleError(f"@{name} is not a function")
        return symbol

    def declare_runtime(self, name: str, function_type: FunctionType) -> Function:
        """Get-or-declare an external runtime function in the temporary IR."""
        return self._temp.declare_function(name, function_type)

    # -- driving the rebuild ---------------------------------------------------------

    def apply_probes(self) -> int:
        """Apply every scheduled probe to the temporary IR; returns count.

        Applies ``applied_probes``: the active set plus disabled patchable
        probes, whose sites are compiled in unconditionally and stripped
        from the object afterwards (sites-always-compiled; see
        :mod:`repro.backend.patching`).
        """
        start = time.perf_counter()
        for probe in self.applied_probes:
            probe.apply(self)
        self.instrument_real_ms += (time.perf_counter() - start) * 1000.0
        return len(self.applied_probes)

    def rebuild(self) -> "RebuildReport":
        """Split, optimize, codegen and relink (Figure 7 right half)."""
        if self._rebuilt:
            raise ScheduleError("this scheduler has already been rebuilt")
        self._rebuilt = True
        report = self.engine._rebuild_from(self)
        self.manager.clear_dirty()
        return report
