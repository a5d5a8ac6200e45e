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

**Stage-1 classification (the tiered fast path).**  Before stage 2, each
dirty fragment's probe-level dirt records are examined: when the engine
has patching enabled and every record on the fragment is either a
cancelled no-op or an enable/disable flip of a *patchable* probe — and
the engine holds a master object whose compiled-in site set still matches
— the fragment is diverted to ``patched_fragments`` and excluded from
extraction/recompilation entirely.  The engine services those by deleting
or restoring probe sites in the cached master (`repro.backend.patching`).
Fragments whose dirt cancelled out completely are skipped outright.
External dirt (symbols marked without a probe record) always forces the
full path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

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


class Scheduler:
    """One scheduled recompilation: temporary IR + the probes to apply."""

    def __init__(self, engine: "Odin"):
        self.engine = engine
        self.manager = manager = engine.manager
        schedule_start = time.perf_counter()

        fragdef = engine.fragdef
        # Stage 1: probes -> symbols.
        changed_symbols: Set[str] = manager.dirty_symbols()

        # Stage-1 fast-path classification: divert pure patchable-toggle
        # fragments to the patch tier and drop their symbols from the
        # recompile set.  `patch_disabled` holds the full disabled site
        # set the master must be toggled to; `patch_touched` the number of
        # sites this rebuild actually flips (the cost driver).
        self.patched_fragments: List[Fragment] = []
        self.patch_disabled: Dict[int, frozenset] = {}
        self.patch_touched: Dict[int, int] = {}
        # Probe families whose toggles drove each patched fragment —
        # rebuild reports attribute patch-tier work to its scheme.
        self.patch_families: Dict[int, frozenset] = {}
        self.skipped_fragments: List[Fragment] = []
        if changed_symbols:
            self._classify_fast_path(changed_symbols)

        # Stage 2: symbols -> fragments.
        self.changed_fragments: List[Fragment] = []
        for fragment in fragdef.fragments:
            if any(s in changed_symbols for s in fragment.symbols):
                self.changed_fragments.append(fragment)
                changed_symbols.update(fragment.symbols)
        self.changed_symbols = changed_symbols

        # Stage 3: fragments -> probes (back propagation).
        self.active_probes: List[Probe] = [
            p
            for p in manager
            if p.enabled and p.target_symbol() in changed_symbols
        ]
        # What actually gets instrumented into the temporary IR: active
        # probes plus *disabled patchable* ones.  Sites-always-compiled —
        # every tier realizes enable/disable by toggling sites in the
        # compiled master, so the master must carry every patchable site
        # regardless of its current state.
        self.applied_probes: List[Probe] = [
            p
            for p in manager
            if p.target_symbol() in changed_symbols
            and (p.enabled or p.patchable)
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
                copy_on_use=fragdef.copy_on_use,
                name=f"{engine.module.name}.patch",
            )
        else:
            self._temp, self._vmap = Module(f"{engine.module.name}.patch"), None
        self.extract_real_ms = (time.perf_counter() - extract_start) * 1000.0
        self._rebuilt = False

    # -- stage-1 classification (tiered fast path) -----------------------------------

    def _classify_fast_path(self, changed_symbols: Set[str]) -> None:
        """Divert patch-eligible fragments; mutates *changed_symbols*."""
        from repro.core.manager import REC_CANCELLED, REC_TOGGLED

        manager = self.manager
        engine = self.engine
        if not engine.enable_patching:
            return
        external = manager.external_dirty_symbols()
        records_by_symbol: Dict[str, List] = {}
        for record in manager.dirty_records().values():
            records_by_symbol.setdefault(record.symbol, []).append(record)

        for fragment in engine.fragdef.fragments:
            symbols = set(fragment.symbols)
            frag_dirty = [s for s in symbols if s in changed_symbols]
            if not frag_dirty:
                continue
            touched = 0
            families: set = set()
            blocked = False
            for symbol in frag_dirty:
                if symbol in external:
                    blocked = True
                    break
                for record in records_by_symbol.get(symbol, ()):
                    kind = record.effective_kind()
                    if kind == REC_CANCELLED:
                        continue
                    if kind == REC_TOGGLED and record.probe.patchable:
                        touched += 1
                        if record.probe.family:
                            families.add(record.probe.family)
                    else:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                continue
            if touched == 0:
                # Every record on the fragment cancelled out: the cached
                # object already reflects the probe state.  Nothing to do
                # — but only if a cached object exists to vouch for it; a
                # never-compiled fragment must take the full path.
                if fragment.id not in engine.cache:
                    continue
                changed_symbols.difference_update(frag_dirty)
                self.skipped_fragments.append(fragment)
                continue
            # Patch eligibility needs a master whose compiled-in site set
            # still matches the live patchable probes (a prior remove/add
            # would have changed the set and forced a full recompile).
            sites = frozenset(
                p.id
                for p in manager
                if p.patchable and p.target_symbol() in symbols
            )
            if sites != engine._site_sets.get(fragment.id):
                continue
            changed_symbols.difference_update(frag_dirty)
            self.patched_fragments.append(fragment)
            self.patch_disabled[fragment.id] = frozenset(
                p.id
                for p in manager
                if p.patchable and not p.enabled and p.target_symbol() in symbols
            )
            self.patch_touched[fragment.id] = touched
            self.patch_families[fragment.id] = frozenset(families)

    def patchable_sites(self, fragment: Fragment) -> frozenset:
        """Ids of all patchable probes targeting *fragment* (any state)."""
        symbols = set(fragment.symbols)
        return frozenset(
            p.id
            for p in self.manager
            if p.patchable and p.target_symbol() in symbols
        )

    def patchable_disabled(self, fragment: Fragment) -> frozenset:
        """Ids of currently *disabled* patchable probes on *fragment*."""
        symbols = set(fragment.symbols)
        return frozenset(
            p.id
            for p in self.manager
            if p.patchable and not p.enabled and p.target_symbol() in symbols
        )

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
