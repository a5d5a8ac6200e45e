"""Content-addressed machine-code caches for the recompilation service.

The engine's per-fragment cache (`Odin.cache`) remembers *which object is
currently linked*; these caches remember *every object ever compiled*,
keyed by ``hash(fragment IR + probe state + opt level + variant label)``
(:func:`repro.core.engine.fragment_content_key`).  The variant label is
the run-time partitioned-sanitization dimension: engines compiling
different co-resident families ("clean"/"coverage"/"sanitized") of the
same program can share one cache directory without ever being served
another family's object.  Two consequences:

* flipping a probe off and later back on replays the earlier object
  instead of recompiling (fuzzers toggle the same probe sets constantly —
  prune, then re-add on coverage regression);
* with :class:`PersistentCodeCache` the objects live on disk, so hits
  survive service restarts and are shared by every client of the
  directory.

Both caches are size-bounded with LRU eviction and thread-safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.backend.machine import ObjectFile

__all__ = [
    "CodeCache",
    "InMemoryCodeCache",
    "PersistentCodeCache",
    "PassMemoCache",
]


class CodeCache:
    """Interface + shared bookkeeping: get/put with hit/miss accounting."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        # Entries refused because they alone exceed the size budget.
        self.rejected = 0
        # Loads that found a corrupt/truncated/unreadable stored entry
        # and degraded it to a miss.
        self.integrity_failures = 0
        self._lock = threading.RLock()

    # Subclasses implement the raw storage.
    def _load(self, key: str) -> Optional[ObjectFile]:
        raise NotImplementedError

    def _store(self, key: str, obj: ObjectFile) -> None:
        raise NotImplementedError

    def get(self, key: str) -> Optional[ObjectFile]:
        with self._lock:
            obj = self._load(key)
            if obj is None:
                self.misses += 1
            else:
                self.hits += 1
            return obj

    def put(self, key: str, obj: ObjectFile) -> None:
        with self._lock:
            self.puts += 1
            self._store(key, obj)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "integrity_failures": self.integrity_failures,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "entries": len(self),
                "bytes": self.size_bytes(),
            }

    def __len__(self) -> int:
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError


class InMemoryCodeCache(CodeCache):
    """Process-local LRU over pickled-size-bounded object files."""

    def __init__(self, max_bytes: int = 16 * 1024 * 1024):
        super().__init__()
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()  # key -> (obj, size)
        self._total = 0

    def _load(self, key: str) -> Optional[ObjectFile]:
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def _store(self, key: str, obj: ObjectFile) -> None:
        size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        old = self._entries.pop(key, None)
        if old is not None:
            self._total -= old[1]
        if size > self.max_bytes:
            # An entry that alone exceeds the budget can never fit;
            # admitting it would pin the cache over budget forever.
            self.rejected += 1
            return
        self._entries[key] = (obj, size)
        self._total += size
        # The newest entry fits alone, so this never empties the cache.
        while self._total > self.max_bytes and self._entries:
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self._total -= evicted_size
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def size_bytes(self) -> int:
        return self._total

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total = 0


class PersistentCodeCache(CodeCache):
    """Disk-backed content-addressed cache, shared across restarts.

    Layout: ``<dir>/<key>.obj`` pickled object files plus an
    ``index.json`` carrying sizes, a monotone LRU tick and a sha256
    checksum per entry (the index payload itself is checksummed too).
    Writes are atomic (temp file + rename), so a crashed writer never
    corrupts the store.

    **Self-healing**: the cache must never be the reason a rebuild
    fails.  A corrupt, truncated or checksum-mismatched entry detected
    on read is *quarantined* — moved to ``quarantine/`` for post-mortem
    instead of deleted or raised — and reported as a miss, costing one
    recompile.  A corrupt or torn ``index.json`` (or one whose payload
    checksum does not verify) is rebuilt by scanning the ``.obj`` files
    on disk, so a damaged index never orphans good objects
    (``repro check`` and ``repro chaos`` inject exactly these faults to
    prove it).  A store whose write or rename fails (a full disk) leaves
    the object uncached and counts a ``store_failures``.

    LRU recency ticks are persisted lazily: a hit only bumps the
    in-memory tick, and the index is flushed on stores, evictions and
    every ``flush_interval`` hits.  A crash loses at most that much
    recency — never an object.
    """

    INDEX = "index.json"
    QUARANTINE = "quarantine"
    INDEX_VERSION = 2

    def __init__(
        self,
        directory: str,
        max_bytes: int = 64 * 1024 * 1024,
        flush_interval: int = 64,
    ):
        super().__init__()
        self.directory = directory
        self.max_bytes = max_bytes
        self.flush_interval = max(flush_interval, 1)
        os.makedirs(directory, exist_ok=True)
        # Self-healing accounting: entries moved to quarantine/, full
        # index rebuilds from a disk scan, and objects left uncached
        # because writing or renaming their file failed.
        self.quarantined = 0
        self.index_rebuilds = 0
        self.store_failures = 0
        self._index: Dict[str, dict] = {}
        self._tick = 0
        self._pending_ticks = 0
        self._read_index()

    def stats(self) -> dict:
        snapshot = super().stats()
        snapshot["quarantined"] = self.quarantined
        snapshot["index_rebuilds"] = self.index_rebuilds
        snapshot["store_failures"] = self.store_failures
        return snapshot

    # -- index persistence ----------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.directory, self.INDEX)

    @staticmethod
    def _entries_checksum(entries: Dict[str, dict]) -> str:
        return hashlib.sha256(
            json.dumps(entries, sort_keys=True).encode()
        ).hexdigest()

    def _index_payload(self, entries: Dict[str, dict]) -> dict:
        return {
            "version": self.INDEX_VERSION,
            "checksum": self._entries_checksum(entries),
            "entries": entries,
        }

    def _validate_index(self, raw) -> Optional[Dict[str, dict]]:
        """Entries from a parsed index, or None when it cannot be trusted."""
        if not isinstance(raw, dict):
            return None
        if isinstance(raw.get("entries"), dict):
            entries = raw["entries"]
            if raw.get("checksum") != self._entries_checksum(entries):
                return None  # torn or hand-edited: rebuild from disk
            return entries
        # Legacy flat {key: meta} format (no checksums): accept as-is.
        if all(isinstance(meta, dict) for meta in raw.values()):
            return raw
        return None

    def _scan_entries(self) -> Dict[str, dict]:
        """Rebuild index entries from the ``.obj`` files on disk."""
        found = []
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover - directory vanished
            return {}
        for name in names:
            if not name.endswith(".obj"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                continue
            found.append((stat.st_mtime, name[: -len(".obj")], stat.st_size, digest))
        entries: Dict[str, dict] = {}
        for tick, (_mtime, key, size, digest) in enumerate(sorted(found), start=1):
            entries[key] = {"size": size, "tick": tick, "sha256": digest}
        return entries

    def _read_index(self) -> None:
        had_index = os.path.exists(self._index_path())
        entries: Optional[Dict[str, dict]] = None
        if had_index:
            try:
                with open(self._index_path(), "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except (OSError, ValueError):
                raw = None
            entries = self._validate_index(raw)
        if entries is None:
            # Corrupt/torn/missing index over a non-empty store: rebuild
            # from the objects themselves instead of orphaning them.
            entries = self._scan_entries()
            if had_index or entries:
                self.index_rebuilds += 1
                self._write_index_entries(entries)
        # Drop index entries whose object file vanished.
        self._index = {
            key: meta
            for key, meta in entries.items()
            if os.path.exists(self._entry_path(key))
        }
        self._tick = max(
            (meta.get("tick", 0) for meta in self._index.values()), default=0
        )

    def _write_index(self) -> None:
        self._write_index_entries(self._index)

    def _write_index_entries(self, entries: Dict[str, dict]) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".idx")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._index_payload(entries), fh)
            os.replace(tmp, self._index_path())
            self._pending_ticks = 0
        except OSError:
            pass  # best-effort persistence; recency is reconstructible
        finally:
            # Covers both the OSError path and non-OSError failures
            # (which propagate) — the temp file must never leak.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def flush(self) -> None:
        """Persist deferred LRU ticks to the on-disk index."""
        with self._lock:
            if self._pending_ticks:
                self._write_index()

    def keys(self) -> list:
        """Stored keys, sorted (chaos harness picks corruption victims)."""
        with self._lock:
            return sorted(self._index)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.obj")

    def _quarantine(self, key: str) -> None:
        """Move a damaged entry to ``quarantine/`` for post-mortem.

        Never raises: a vanished file (delete-obj fault) simply has
        nothing left to preserve.
        """
        self.quarantined += 1
        try:
            quarantine_dir = os.path.join(self.directory, self.QUARANTINE)
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(
                self._entry_path(key),
                os.path.join(quarantine_dir, f"{key}.obj"),
            )
        except OSError:
            pass

    # -- storage ---------------------------------------------------------------

    def _load(self, key: str) -> Optional[ObjectFile]:
        meta = self._index.get(key)
        if meta is None:
            return None
        try:
            with open(self._entry_path(key), "rb") as fh:
                payload = fh.read()
            expected = meta.get("sha256")
            if (
                expected is not None
                and hashlib.sha256(payload).hexdigest() != expected
            ):
                raise ValueError("stored entry bytes fail their checksum")
            obj = pickle.loads(payload)
            if not isinstance(obj, ObjectFile):
                raise pickle.UnpicklingError("stored entry is not an ObjectFile")
        except Exception:
            # Unpickling corrupt bytes can raise almost anything
            # (EOFError, UnpicklingError, AttributeError, struct.error,
            # ...).  Whatever the fault: quarantine the damaged entry,
            # drop it from the index, and report a miss — never an error
            # and never wrong code.
            self._index.pop(key, None)
            self.integrity_failures += 1
            self._quarantine(key)
            self._write_index()
            return None
        # Defer tick persistence: rewriting the whole index on every hit
        # made each lookup O(index) in JSON work.
        self._tick += 1
        meta["tick"] = self._tick
        self._pending_ticks += 1
        if self._pending_ticks >= self.flush_interval:
            self._write_index()
        return obj

    def _store(self, key: str, obj: ObjectFile) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self.max_bytes:
            # Refuse entries that alone exceed the budget (and drop any
            # stale resident copy under the same key).
            self.rejected += 1
            if self._index.pop(key, None) is not None:
                try:
                    os.unlink(self._entry_path(key))
                except OSError:
                    pass
                self._write_index()
            return
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._entry_path(key))
        except OSError:
            # A full disk or a failed rename costs a later recompile,
            # never this rebuild: the object is just not cached.
            self.store_failures += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._tick += 1
        self._index[key] = {
            "size": len(payload),
            "tick": self._tick,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        self._evict()
        self._write_index()

    def _evict(self) -> None:
        # The entry just stored fits alone, so this cannot evict it; but
        # an oversized entry inherited from an older store on disk is
        # evictable — no "keep at least one" guard.
        while self.size_bytes() > self.max_bytes and self._index:
            victim = min(self._index, key=lambda k: self._index[k]["tick"])
            self._index.pop(victim)
            try:
                os.unlink(self._entry_path(victim))
            except OSError:
                pass
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._index)

    def size_bytes(self) -> int:
        return sum(meta["size"] for meta in self._index.values())

    def clear(self) -> None:
        with self._lock:
            for key in list(self._index):
                try:
                    os.unlink(self._entry_path(key))
                except OSError:
                    pass
            self._index.clear()
            self._write_index()

    # -- fault injection (repro check) ----------------------------------------

    FAULT_KINDS = (
        "truncate-obj",   # entry file cut short mid-payload
        "corrupt-obj",    # entry bytes overwritten with garbage
        "delete-obj",     # entry file vanished under the index
        "torn-obj",       # partial write: valid prefix, zero-filled tail
        "corrupt-index",  # index.json is not JSON at all
        "torn-index",     # index.json cut short (crashed non-atomic writer)
        "stale-index",    # index names an entry whose file never existed
    )

    def inject_fault(self, kind: str, key: Optional[str] = None) -> None:
        """Damage the on-disk store the way a crash or torn write would.

        This is a test hook for the differential fault suite
        (:mod:`repro.check.faults`): every kind must degrade the next
        lookup to a cache miss, never to wrong code.  Index faults are
        observed by *reopening* the directory, like a service restart.
        """
        if kind not in self.FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        with self._lock:
            if kind.endswith("-obj"):
                if key is None:
                    raise ValueError(f"fault {kind!r} needs a key")
                path = self._entry_path(key)
                data = b""
                try:
                    with open(path, "rb") as fh:
                        data = fh.read()
                except OSError:
                    pass
                if kind == "truncate-obj":
                    with open(path, "wb") as fh:
                        fh.write(data[: max(len(data) // 2, 1)])
                elif kind == "corrupt-obj":
                    with open(path, "wb") as fh:
                        fh.write(b"\xde\xad" * max(len(data) // 2, 8))
                elif kind == "torn-obj":
                    with open(path, "wb") as fh:
                        fh.write(data[: max(len(data) // 2, 1)])
                        fh.write(b"\x00" * (len(data) - len(data) // 2))
                else:  # delete-obj
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            elif kind == "corrupt-index":
                with open(self._index_path(), "w", encoding="utf-8") as fh:
                    fh.write("{ this is not json")
            elif kind == "torn-index":
                try:
                    with open(self._index_path(), "r", encoding="utf-8") as fh:
                        text = fh.read()
                except OSError:
                    text = json.dumps(self._index)
                with open(self._index_path(), "w", encoding="utf-8") as fh:
                    fh.write(text[: max(len(text) // 2, 1)])
            else:  # stale-index
                # Checksum-valid index naming an entry that never existed:
                # exercises the missing-file drop, not the rebuild path.
                stale = dict(self._index)
                stale["0" * 64] = {"size": 123, "tick": self._tick + 1}
                with open(self._index_path(), "w", encoding="utf-8") as fh:
                    json.dump(self._index_payload(stale), fh)


class PassMemoCache(InMemoryCodeCache):
    """An in-memory cache for pass-memo payloads (optimized-IR snapshots).

    Same LRU/size-budget/accounting machinery as the object caches.
    No build path constructs one.  The class stays only because the
    benchmark's layer tracer (``perfbench/tracing.py``) tells memo
    lookups from code-cache lookups with ``isinstance(...,
    PassMemoCache)``; it goes together with that hook.
    """

    def __init__(self, max_bytes: int = 32 * 1024 * 1024):
        super().__init__(max_bytes=max_bytes)
