"""PatchManager: dynamic probe add/remove/change (§4).

    probe = manager.add(CovProbe(fn, block))   # probes can be added
    manager.remove(probe)                      # probes can be removed
    probe.payload = ...; manager.mark_changed(probe)  # and changed

Every mutation marks the probe's symbol *dirty*; ``schedule()`` runs
Algorithm 2 over the dirty set and returns a :class:`Scheduler` that the
fuzzer's patch logic drives to rebuild the executable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, TypeVar

from repro.core.probe import Probe
from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Odin
    from repro.core.scheduler import Scheduler

P = TypeVar("P", bound=Probe)


class PatchManager:
    """Owns all probes and tracks which changed since the last rebuild.

    It records only *where* dirt is: the scheduler decides each dirty
    fragment by comparing its live probes with the state the fragment
    was built for (:func:`repro.core.scheduler.classify`).
    """

    def __init__(self, engine: "Odin"):
        self.engine = engine
        self._probes: Dict[int, Probe] = {}
        self._next_id = 0
        # Live probes by target symbol: every per-fragment question
        # reads this instead of scanning every probe.
        self._by_symbol: Dict[str, Dict[int, Probe]] = {}
        # Dirt since the last rebuild: every symbol a mutation touched,
        # the symbols marked with no probe-level explanation (external
        # dirt, always recompiled) and the probes whose logic changed.
        self._dirty_symbols: set = set()
        self._external_dirty: set = set()
        self._changed_ids: set = set()
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

    def probes_on(self, symbols: Iterable[str]) -> List[Probe]:
        """Live probes targeting any of *symbols*."""
        return [
            probe
            for symbol in symbols
            for probe in self._by_symbol.get(symbol, {}).values()
        ]

    # -- mutation ------------------------------------------------------------------

    def add(self, probe: P) -> P:
        """Register a probe; it will be applied on the next rebuild."""
        if probe.id >= 0:
            raise ScheduleError(f"probe {probe!r} is already registered")
        probe.validate_target(self.engine.module)
        probe.id = self._next_id
        self._next_id += 1
        self._probes[probe.id] = probe
        symbol = probe.target_symbol()
        self._by_symbol.setdefault(symbol, {})[probe.id] = probe
        self._dirty_symbols.add(symbol)
        return probe

    def remove(self, probe: Probe) -> None:
        """Unregister a probe; its symbol is recompiled without it, and
        every bound registry forgets it."""
        if self._probes.pop(probe.id, None) is None:
            raise ScheduleError(f"probe {probe!r} is not registered")
        for registry in self._bound:
            registry.pop(probe.id, None)
        symbol = probe.target_symbol()
        del self._by_symbol[symbol][probe.id]
        self._dirty_symbols.add(symbol)
        self._changed_ids.discard(probe.id)
        probe.id = -1

    def mark_changed(self, probe: Probe) -> None:
        """Record that the probe's logic/state changed (§4: probes can be
        queried and their logic changed); its fragment recompiles."""
        self._check_registered(probe)
        self._dirty_symbols.add(probe.target_symbol())
        self._changed_ids.add(probe.id)

    def disable(self, probe: Probe) -> None:
        """Keep the probe object but stop instrumenting with it."""
        self._set_enabled(probe, False)

    def enable(self, probe: Probe) -> None:
        self._set_enabled(probe, True)

    def _set_enabled(self, probe: Probe, enabled: bool) -> None:
        self._check_registered(probe)
        if probe.enabled != enabled:
            probe.enabled = enabled
            self._dirty_symbols.add(probe.target_symbol())

    def _check_registered(self, probe: Probe) -> None:
        # A probe that was never added (or was removed, id == -1) is in
        # no build: refuse rather than dirty its symbol.
        if probe.id not in self._probes:
            raise ScheduleError(f"probe {probe!r} is not registered")

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

    def external_dirty_symbols(self) -> set:
        """Dirty symbols carrying dirt no probe explains."""
        return set(self._external_dirty)

    def changed_probe_ids(self) -> set:
        """Ids of the probes marked changed since the last rebuild."""
        return set(self._changed_ids)

    def schedule(self) -> "Scheduler":
        """Run Algorithm 2 and return the scheduler for this rebuild."""
        from repro.core.scheduler import Scheduler

        return Scheduler(self.engine)

    def clear_dirty(self) -> None:
        self._dirty_symbols.clear()
        self._external_dirty.clear()
        self._changed_ids.clear()
