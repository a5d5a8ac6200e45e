"""PatchManager: dynamic probe add/remove/change (§4).

    probe = manager.add(CovProbe(fn, block))   # probes can be added
    manager.remove(probe)                      # probes can be removed
    probe.payload = ...; manager.mark_changed(probe)  # and changed

Every mutation records the probe as *dirty*; ``schedule()`` runs
Algorithm 2 over the dirty set and returns a :class:`Scheduler` that the
fuzzer's patch logic drives to rebuild the executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, TypeVar

from repro.core.probe import Probe
from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Odin
    from repro.core.scheduler import Scheduler

P = TypeVar("P", bound=Probe)

# Dirty-record kinds: what happened to a probe since the last rebuild.
REC_ADDED = "added"
REC_REMOVED = "removed"
REC_CHANGED = "changed"
REC_TOGGLED = "toggled"
# An add that was removed again (or a toggle that round-tripped) before
# any rebuild: the probe state matches what is already compiled.
REC_CANCELLED = "cancelled"


@dataclass
class DirtyRecord:
    """One probe's pending mutation, classified for the tiered rebuild.

    The scheduler uses these to decide per fragment whether the stage-1
    patch path applies: a fragment whose dirt consists purely of
    enable/disable flips of *patchable* probes (and cancelled no-ops) can
    be serviced by toggling sites in the cached master object.
    """

    probe: Probe
    symbol: str
    kind: str
    # Enabled state when the record was created — i.e. the state the
    # currently cached objects were toggled to.  A TOGGLED record whose
    # probe is back at its baseline is effectively cancelled.
    baseline_enabled: bool = True

    def effective_kind(self) -> str:
        if self.kind == REC_TOGGLED and self.probe.enabled == self.baseline_enabled:
            return REC_CANCELLED
        return self.kind


class PatchManager:
    """Owns all probes and tracks which changed since the last rebuild."""

    def __init__(self, engine: "Odin"):
        self.engine = engine
        self._probes: Dict[int, Probe] = {}
        self._next_id = 0
        # Dirty tracking: probe ids and (for removed probes) their symbols.
        self._dirty_probe_ids: set = set()
        self._dirty_symbols: set = set()
        # Classified dirt: probe id -> DirtyRecord.  Symbols marked dirty
        # with no probe-level explanation (initial build, direct pokes)
        # are *external* dirt and always take the full recompile path.
        # External dirt is tracked explicitly: a symbol can carry both a
        # probe record *and* external dirt (initial build over a symbol
        # whose probe was added then removed), and inferring externality
        # from record coverage would hide the external half.
        self._dirty_records: Dict[int, DirtyRecord] = {}
        self._external_dirty: set = set()
        # Tool registries (each ProbeSet's id -> probe dict) that a
        # removal must leave too, so no tool keeps a dead probe.
        self._bound: List[Dict[int, Probe]] = []

    # -- collection protocol ----------------------------------------------------

    def __iter__(self) -> Iterator[Probe]:
        return iter(list(self._probes.values()))

    def __len__(self) -> int:
        return len(self._probes)

    def get_probe(self, probe_id: int) -> Probe:
        try:
            return self._probes[probe_id]
        except KeyError:
            raise ScheduleError(f"no probe with id {probe_id}") from None

    def bind(self, registry: Dict[int, Probe]) -> None:
        """Drop every probe this manager removes from *registry* too."""
        self._bound.append(registry)

    # -- mutation ------------------------------------------------------------------

    def add(self, probe: P) -> P:
        """Register a probe; it will be applied on the next rebuild."""
        if probe.id >= 0:
            raise ScheduleError(f"probe {probe!r} is already registered")
        probe.validate_target(self.engine.module)
        probe.id = self._next_id
        self._next_id += 1
        self._probes[probe.id] = probe
        self._mark(probe)
        self._dirty_records[probe.id] = DirtyRecord(
            probe, probe.target_symbol(), REC_ADDED, probe.enabled
        )
        return probe

    def remove(self, probe: Probe) -> None:
        """Unregister a probe; its symbol is recompiled without it, and
        every bound registry forgets it."""
        if self._probes.pop(probe.id, None) is None:
            raise ScheduleError(f"probe {probe!r} is not registered")
        for registry in self._bound:
            registry.pop(probe.id, None)
        self._mark(probe)
        record = self._dirty_records.get(probe.id)
        if record is not None and record.kind == REC_ADDED:
            # Added and removed within one dirty cycle: a no-op for the
            # compiled state, but the symbol stays dirty so schedulers
            # that bypass classification behave as before.
            record.kind = REC_CANCELLED
        else:
            self._dirty_records[probe.id] = DirtyRecord(
                probe, probe.target_symbol(), REC_REMOVED, probe.enabled
            )
        probe.id = -1

    def mark_changed(self, probe: Probe) -> None:
        """Record that the probe's logic/state changed (§4: probes can be
        queried and their logic changed)."""
        if probe.id not in self._probes:
            raise ScheduleError(f"probe {probe!r} is not registered")
        self._mark(probe)
        record = self._dirty_records.get(probe.id)
        if record is None or record.kind != REC_ADDED:
            # A changed probe's instrumentation may differ: full path.
            self._dirty_records[probe.id] = DirtyRecord(
                probe, probe.target_symbol(), REC_CHANGED, probe.enabled
            )

    def disable(self, probe: Probe) -> None:
        """Keep the probe object but stop instrumenting with it."""
        # Like mark_changed: toggling a probe that was never added (or
        # was removed, id == -1) would record dirt keyed at a bogus id
        # and silently corrupt the dirty set.
        if probe.id not in self._probes:
            raise ScheduleError(f"probe {probe!r} is not registered")
        if probe.enabled:
            probe.enabled = False
            self._note_toggle(probe, baseline=True)

    def enable(self, probe: Probe) -> None:
        if probe.id not in self._probes:
            raise ScheduleError(f"probe {probe!r} is not registered")
        if not probe.enabled:
            probe.enabled = True
            self._note_toggle(probe, baseline=False)

    def _note_toggle(self, probe: Probe, baseline: bool) -> None:
        self._mark(probe)
        # An existing added/changed/toggled record already captures the
        # stronger mutation (records carry the live probe, so its current
        # enabled state is always visible to the scheduler).
        if probe.id not in self._dirty_records:
            self._dirty_records[probe.id] = DirtyRecord(
                probe, probe.target_symbol(), REC_TOGGLED, baseline
            )

    def _mark(self, probe: Probe) -> None:
        self._dirty_probe_ids.add(probe.id)
        self._dirty_symbols.add(probe.target_symbol())

    def mark_symbols_dirty(self, symbols) -> None:
        """Mark symbols dirty with no probe-level explanation.

        External dirt always takes the full recompile path; the initial
        build uses this to force every fragment through compilation.
        """
        symbols = set(symbols)
        self._dirty_symbols.update(symbols)
        self._external_dirty.update(symbols)

    # -- scheduling --------------------------------------------------------------------

    @property
    def has_pending_changes(self) -> bool:
        return bool(self._dirty_symbols)

    def dirty_symbols(self) -> set:
        return set(self._dirty_symbols)

    def dirty_records(self) -> Dict[int, DirtyRecord]:
        return dict(self._dirty_records)

    def external_dirty_symbols(self) -> set:
        """Dirty symbols carrying dirt no probe-level record explains.

        The explicit set (``mark_symbols_dirty``) is the authority; the
        record-coverage inference is kept as a backstop for dirty symbols
        that somehow gained neither a record nor an external mark.
        """
        covered = {rec.symbol for rec in self._dirty_records.values()}
        inferred = {s for s in self._dirty_symbols if s not in covered}
        return (self._external_dirty & self._dirty_symbols) | inferred

    def has_effective_changes(self) -> bool:
        """Whether the pending dirt actually differs from the built state.

        False when every record cancelled out (probe added then removed,
        or toggled back to its baseline) and no external dirt exists —
        the compiled objects already reflect the current probe state, so
        ``rebuild_if_needed`` can answer with a zero-cost no-op.
        """
        if self.external_dirty_symbols():
            return True
        return any(
            rec.effective_kind() != REC_CANCELLED
            for rec in self._dirty_records.values()
        )

    def schedule(self) -> "Scheduler":
        """Run Algorithm 2 and return the scheduler for this rebuild."""
        from repro.core.scheduler import Scheduler

        return Scheduler(self.engine)

    def clear_dirty(self) -> None:
        self._dirty_probe_ids.clear()
        self._dirty_symbols.clear()
        self._dirty_records.clear()
        self._external_dirty.clear()
