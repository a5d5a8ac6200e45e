"""ProbeSet: one tool's probe registry over the shared PatchManager.

Every probe-family tool (coverage, UBSan/ASan, CmpLog, profiling) used
to keep its own ``Dict[int, Probe]`` next to the :class:`PatchManager`
and re-implement the same loops over it: register-and-remember, flip a
symbol's probes, map runtime counters back onto probe annotations.
:class:`ProbeSet` owns those loops once, so coverage, sanitizers and
profiling are three uniform clients of one scheduler rather than
coverage being special-cased.

The set reads like a dict (iteration yields ids, ``tool.probes[pid]``,
``.get``, ``.values()``, ``.items()``, ``len``, ``in``) but is written
only through the manager: :meth:`register` adds, and every removal,
whether :meth:`discard`, a prune or a service op, goes through
``PatchManager.remove``, which drops the probe from every set bound to
that manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, TypeVar

from repro.core.probe import Probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import PatchManager

P = TypeVar("P", bound=Probe)


@dataclass
class SyncOutcome:
    """Result of one counter sync: what landed, what could not."""

    #: Events accumulated onto a registered probe's annotation.
    attributed: int = 0
    #: Events whose probe id is no longer in the set (pruned/removed
    #: between the counting and the sync).  Callers fold these into a
    #: lifetime tally instead of silently dropping them.
    unattributed: int = 0


class ProbeSet:
    """One tool's ``{probe id -> Probe}``, bound to a :class:`PatchManager`.

    Every write goes through the manager (register, enable/disable, and
    any removal, which drops the probe here), so the set and the
    manager's dirt records stay in lockstep.
    """

    def __init__(self, manager: "PatchManager", family: str = ""):
        self.manager = manager
        #: Family tag of probes this set holds (informational; the
        #: authoritative tag lives on each probe class).
        self.family = family
        self._probes: Dict[int, Probe] = {}
        manager.bind(self._probes)

    # -- registration ---------------------------------------------------------

    def register(self, probe: P) -> P:
        """Add *probe* to the manager and remember it here."""
        probe = self.manager.add(probe)
        self._probes[probe.id] = probe
        return probe

    def discard(self, probe_id: int) -> Optional[Probe]:
        """Unregister a probe from the manager, which drops it from this
        set.  Returns the probe, or None if unknown."""
        probe = self._probes.get(probe_id)
        if probe is not None:
            self.manager.remove(probe)
        return probe

    # -- dict protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self._probes)

    def __len__(self) -> int:
        return len(self._probes)

    def __contains__(self, probe_id: object) -> bool:
        return probe_id in self._probes

    def __getitem__(self, probe_id: int) -> Probe:
        return self._probes[probe_id]

    def get(self, probe_id: int, default=None):
        return self._probes.get(probe_id, default)

    def keys(self):
        return self._probes.keys()

    def values(self):
        return self._probes.values()

    def items(self):
        return self._probes.items()

    # -- probe-state queries ----------------------------------------------------

    def for_symbol(self, symbol: str) -> List[Probe]:
        return [
            p for p in self._probes.values() if p.target_symbol() == symbol
        ]

    def symbols(self) -> Set[str]:
        return {p.target_symbol() for p in self._probes.values()}

    # -- probe-state mutation ----------------------------------------------------

    def set_symbol_enabled(self, symbol: str, enabled: bool) -> int:
        """Flip every probe of this set targeting *symbol*; returns how
        many changed state."""
        changed = 0
        for probe in list(self._probes.values()):
            if probe.target_symbol() != symbol or probe.enabled == enabled:
                continue
            if enabled:
                self.manager.enable(probe)
            else:
                self.manager.disable(probe)
            changed += 1
        return changed

    # -- profile sync ------------------------------------------------------------

    def sync_counts(self, counts: Dict[int, int], attr: str) -> SyncOutcome:
        """Accumulate runtime counters onto probe annotations.

        Counters whose probe id is no longer in the set are *not*
        silently dropped: they are tallied into
        :attr:`SyncOutcome.unattributed` so lifetime totals survive
        concurrent pruning/de-instrumentation.
        """
        outcome = SyncOutcome()
        for pid, count in counts.items():
            probe = self._probes.get(pid)
            if probe is None:
                outcome.unattributed += count
                continue
            setattr(probe, attr, getattr(probe, attr, 0) + count)
            outcome.attributed += count
        return outcome
