"""Executable image cache: a bounded LRU of linked executables.

No build path uses it: the engine either relinks from its objects or
splices a patch-only rebuild into the current image.  The class stays
only because the benchmark's layer tracer (``perfbench/tracing.py``)
wraps :meth:`LinkCache.get`; it goes together with that hook.

Keys are tuples of strings; the cache is in-memory and bounded, and
eviction is LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.linker.linker import Executable

LinkKey = Tuple[str, ...]


class LinkCache:
    """Bounded LRU of linked executables keyed by object content keys."""

    def __init__(self, max_entries: int = 32):
        if max_entries <= 0:
            raise ValueError("LinkCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[LinkKey, Executable]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: LinkKey) -> Optional[Executable]:
        exe = self._entries.get(key)
        if exe is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return exe

    def put(self, key: LinkKey, exe: Executable) -> None:
        self._entries[key] = exe
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry *and* the hit/miss counters.

        ``clear()`` starts a new epoch: callers that empty the cache
        (e.g. between benchmark phases) read ``stats()`` expecting it to
        describe the cache *since the clear*, so leaving the previous
        epoch's counters in place made every post-clear snapshot lie.
        Use :meth:`reset_stats` to zero the counters without dropping
        entries.
        """
        self._entries.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters, keeping the cached entries."""
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }
