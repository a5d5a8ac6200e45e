"""Content-addressed code cache behaviour: keys, LRU, persistence."""

import errno
import os

import pytest

from repro.backend.machine import DataSymbol, MachineFunction, MachineInst, ObjectFile
from repro.core.engine import Odin, fragment_content_key
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.service.cache import InMemoryCodeCache, PersistentCodeCache

PRESERVED = ("main", "run_input")


def make_object(name: str, payload: bytes = b"") -> ObjectFile:
    obj = ObjectFile(name)
    mf = MachineFunction(name=f"{name}_fn", linkage="external")
    mf.insts = [MachineInst("ret")]
    obj.add_function(mf)
    if payload:
        obj.add_data(DataSymbol(f"{name}_data", payload, "internal"))
    obj.compile_ms = 1.0
    return obj


def split_probed_fragment(engine: Odin):
    """Schedule a full build and split one fragment that carries probes
    (falls back to fragment #0 for engines without probes)."""
    engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())
    sched = engine.manager.schedule()
    sched.apply_probes()
    probed_symbols = {p.target_symbol() for p in engine.manager}
    fragment = next(
        (
            f
            for f in sched.changed_fragments
            if probed_symbols & set(f.symbols)
        ),
        sched.changed_fragments[0],
    )
    return engine._split_fragment(sched.temp_module, fragment), fragment


class TestContentKey:
    def test_same_ir_same_probes_same_key(self):
        """Content addressing is stable across engine instances — that is
        what makes the cache shareable between clients and restarts."""
        keys = []
        for _ in range(2):
            engine = Odin(get_program("libjpeg").compile(), preserve=PRESERVED)
            tool = OdinCov(engine)
            tool.add_all_block_probes()
            frag, _ = split_probed_fragment(engine)
            keys.append(fragment_content_key(frag, 2))
        assert keys[0] == keys[1]

    def test_opt_level_changes_key(self):
        engine = Odin(get_program("libjpeg").compile(), preserve=PRESERVED)
        frag, _ = split_probed_fragment(engine)
        assert fragment_content_key(frag, 2) != fragment_content_key(frag, 0)

    def test_probe_signature_changes_key(self):
        engine = Odin(get_program("libjpeg").compile(), preserve=PRESERVED)
        frag, _ = split_probed_fragment(engine)
        assert fragment_content_key(frag, 2, "CovProbe#1") != fragment_content_key(
            frag, 2, "CovProbe#2"
        )

    def test_probe_toggle_preserves_master_key(self):
        """Sites-always-compiled: disabling a patchable probe leaves the
        instrumented IR — and therefore the master's content key —
        unchanged.  The enable/disable state is realized by toggling the
        compiled object, never in the content address."""
        engine = Odin(get_program("libjpeg").compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        frag_a, fragment = split_probed_fragment(engine)
        engine.manager.clear_dirty()
        # Disable every probe of that fragment and re-split.
        symbols = set(fragment.symbols)
        for probe in list(engine.manager):
            if probe.target_symbol() in symbols:
                engine.manager.disable(probe)
        frag_b, _ = split_probed_fragment(engine)
        assert fragment_content_key(frag_a, 2) == fragment_content_key(frag_b, 2)


class TestInMemoryCache:
    def test_roundtrip_and_stats(self):
        cache = InMemoryCodeCache()
        assert cache.get("k") is None
        cache.put("k", make_object("a"))
        assert cache.get("k").name == "a"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_lru_eviction_under_size_bound(self):
        probe = len(
            __import__("pickle").dumps(make_object("x", b"y" * 256))
        )
        cache = InMemoryCodeCache(max_bytes=probe * 3)
        for i in range(4):
            cache.put(f"k{i}", make_object(f"o{i}", b"y" * 256))
        assert cache.evictions >= 1
        assert cache.get("k0") is None          # oldest evicted
        assert cache.get("k3") is not None      # newest kept
        assert cache.size_bytes() <= probe * 3

    def test_get_refreshes_lru_order(self):
        probe = len(
            __import__("pickle").dumps(make_object("x", b"y" * 256))
        )
        cache = InMemoryCodeCache(max_bytes=int(probe * 2.5))
        cache.put("k0", make_object("o0", b"y" * 256))
        cache.put("k1", make_object("o1", b"y" * 256))
        cache.get("k0")                          # k0 now most recent
        cache.put("k2", make_object("o2", b"y" * 256))
        assert cache.get("k1") is None           # k1 was the LRU victim
        assert cache.get("k0") is not None


class TestPersistentCache:
    def test_roundtrip(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("deadbeef", make_object("a", b"xyz"))
        loaded = cache.get("deadbeef")
        assert loaded is not None
        assert loaded.data["a_data"].data == b"xyz"

    def test_survives_restart(self, tmp_path):
        PersistentCodeCache(str(tmp_path)).put("k", make_object("a"))
        reopened = PersistentCodeCache(str(tmp_path))
        assert len(reopened) == 1
        assert reopened.get("k") is not None

    def test_eviction_under_size_bound(self, tmp_path):
        entry_size = len(
            __import__("pickle").dumps(make_object("o0", b"y" * 128))
        )
        cache = PersistentCodeCache(str(tmp_path), max_bytes=int(entry_size * 1.5))
        cache.put("k0", make_object("o0", b"y" * 128))
        cache.put("k1", make_object("o1", b"y" * 128))
        # The bound admits one entry at a time; the older one is evicted
        # from disk as well as from the index.
        assert cache.evictions >= 1
        assert len(cache) == 1
        assert cache.get("k0") is None
        reopened = PersistentCodeCache(str(tmp_path), max_bytes=int(entry_size * 1.5))
        assert len(reopened) == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a"))
        (tmp_path / "k.obj").write_bytes(b"not a pickle")
        assert cache.get("k") is None
        assert "k" not in cache._index

    def test_missing_file_dropped_on_restart(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a"))
        (tmp_path / "k.obj").unlink()
        reopened = PersistentCodeCache(str(tmp_path))
        assert len(reopened) == 0


class TestOversizedEntries:
    """Regression: a single entry larger than the whole budget used to be
    admitted (the eviction loop refused to drop the last entry) and then
    pinned the cache over budget forever."""

    def test_inmemory_rejects_oversized_entry(self):
        cache = InMemoryCodeCache(max_bytes=64)
        cache.put("big", make_object("big", b"y" * 4096))
        assert len(cache) == 0
        assert cache.size_bytes() == 0
        assert cache.stats()["rejected"] == 1
        assert cache.get("big") is None

    def test_inmemory_oversized_does_not_evict_good_entries(self):
        probe = len(
            __import__("pickle").dumps(make_object("x", b"y" * 64))
        )
        cache = InMemoryCodeCache(max_bytes=probe * 2)
        cache.put("good", make_object("o0", b"y" * 64))
        cache.put("big", make_object("big", b"y" * 8192))
        assert cache.get("good") is not None
        assert cache.get("big") is None
        assert cache.stats()["rejected"] == 1

    def test_persistent_rejects_oversized_entry(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path), max_bytes=64)
        cache.put("big", make_object("big", b"y" * 4096))
        assert len(cache) == 0
        assert cache.stats()["rejected"] == 1
        assert cache.get("big") is None
        assert not (tmp_path / "big.obj").exists()

    def test_persistent_oversized_replaces_nothing_on_disk(self, tmp_path):
        entry_size = len(
            __import__("pickle").dumps(make_object("o0", b"y" * 128))
        )
        cache = PersistentCodeCache(str(tmp_path), max_bytes=entry_size * 2)
        cache.put("k", make_object("o0", b"y" * 128))
        # Re-storing the same key with an oversized payload must not leave
        # the stale small copy behind pretending to be the new content.
        cache.put("k", make_object("o0", b"y" * 65536))
        assert cache.get("k") is None
        assert not (tmp_path / "k.obj").exists()


class TestIndexPersistence:
    """Regression: every cache hit used to rewrite the whole index.json
    just to persist an LRU tick."""

    def test_hits_do_not_rewrite_index_eagerly(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path), flush_interval=64)
        cache.put("k", make_object("a"))
        index = tmp_path / "index.json"
        before = index.read_bytes()
        for _ in range(10):
            assert cache.get("k") is not None
        assert index.read_bytes() == before  # ticks deferred in memory

    def test_flush_persists_pending_ticks(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path), flush_interval=64)
        cache.put("k", make_object("a"))
        index = tmp_path / "index.json"
        before = index.read_bytes()
        cache.get("k")
        cache.flush()
        assert index.read_bytes() != before
        cache.flush()  # idempotent: nothing pending, no rewrite

    def test_flush_interval_triggers_persistence(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path), flush_interval=3)
        cache.put("k", make_object("a"))
        index = tmp_path / "index.json"
        before = index.read_bytes()
        cache.get("k")
        cache.get("k")
        assert index.read_bytes() == before  # 2 pending < interval
        cache.get("k")
        assert index.read_bytes() != before  # 3rd hit crosses the interval

    def test_lru_order_survives_restart_after_flush(self, tmp_path):
        probe = len(
            __import__("pickle").dumps(make_object("x", b"y" * 128))
        )
        cache = PersistentCodeCache(
            str(tmp_path), max_bytes=int(probe * 2.5), flush_interval=64
        )
        cache.put("k0", make_object("o0", b"y" * 128))
        cache.put("k1", make_object("o1", b"y" * 128))
        cache.get("k0")  # k0 most recent, but only in memory
        cache.flush()
        reopened = PersistentCodeCache(
            str(tmp_path), max_bytes=int(probe * 2.5)
        )
        reopened.put("k2", make_object("o2", b"y" * 128))
        assert reopened.get("k1") is None  # k1 was the LRU victim
        assert reopened.get("k0") is not None

    def test_write_index_cleans_temp_on_failure(self, tmp_path, monkeypatch):
        """Regression: a non-OSError during serialisation leaked the
        mkstemp temp file next to index.json forever."""
        import json as json_module

        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a"))

        def boom(*args, **kwargs):
            raise ValueError("unserialisable")

        monkeypatch.setattr(json_module, "dump", boom)
        with pytest.raises(ValueError):
            cache.put("k2", make_object("b"))
        monkeypatch.undo()
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".idx")]
        assert leftovers == []


class TestSelfHealing:
    """Quarantine + index auto-rebuild: damage degrades to a miss and the
    evidence is preserved, never an exception and never wrong code."""

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_failed_store_is_a_miss_not_a_failed_build(
        self, tmp_path, monkeypatch, failing
    ):
        """A full disk while storing objects: the build still succeeds,
        nothing is cached and no temp file is left behind."""

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if failing == "rename":
            replace = os.replace

            def failing_replace(src, dst, *args, **kwargs):
                if str(dst).endswith(".obj"):
                    disk_full()
                return replace(src, dst, *args, **kwargs)

            monkeypatch.setattr(os, "replace", failing_replace)
        else:
            fdopen = os.fdopen

            def failing_fdopen(fd, mode="r", *args, **kwargs):
                fh = fdopen(fd, mode, *args, **kwargs)
                if "b" in mode:
                    monkeypatch.setattr(fh, "write", disk_full)
                return fh

            monkeypatch.setattr(os, "fdopen", failing_fdopen)

        def build():
            engine = Odin(
                get_program("json").compile(), preserve=PRESERVED,
                object_cache=cache,
            )
            OdinCov(engine).add_all_block_probes()
            return engine, engine.initial_build()

        cache = PersistentCodeCache(str(tmp_path))
        engine, report = build()
        monkeypatch.undo()
        assert engine.executable is not None
        assert cache.stats()["store_failures"] == len(report.fragment_ids) > 0
        assert len(cache) == 0
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        _engine, again = build()
        assert again.cache_hits == 0

    def test_corrupt_blob_is_quarantined_not_raised(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a", b"xyz"))
        cache.inject_fault("corrupt-obj", key="k")
        assert cache.get("k") is None
        assert cache.quarantined == 1
        assert cache.integrity_failures == 1
        assert (tmp_path / "quarantine" / "k.obj").exists()
        assert not (tmp_path / "k.obj").exists()
        # The slot is usable again: a fresh put round-trips.
        cache.put("k", make_object("a", b"xyz"))
        assert cache.get("k") is not None

    def test_truncated_blob_is_quarantined(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a", b"xyz"))
        cache.inject_fault("truncate-obj", key="k")
        assert cache.get("k") is None
        assert cache.quarantined == 1
        assert (tmp_path / "quarantine" / "k.obj").exists()

    def test_vanished_blob_counts_but_never_raises(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a"))
        cache.inject_fault("delete-obj", key="k")
        assert cache.get("k") is None  # nothing left to move; still a miss
        assert cache.quarantined == 1

    def test_wrong_payload_type_degrades_to_miss(self, tmp_path):
        """An entry whose bytes pass their checksum but unpickle to
        something other than an ObjectFile (here IR text) is
        quarantined and served as a miss, never returned."""
        PersistentCodeCache(str(tmp_path)).put(
            "k", "define i32 @f() {\nentry:\n  ret i32 0\n}\n"
        )
        cache = PersistentCodeCache(str(tmp_path))
        assert cache.get("k") is None
        assert cache.misses == 1
        assert cache.integrity_failures == 1
        assert cache.quarantined == 1
        assert (tmp_path / "quarantine" / "k.obj").exists()
        assert cache.keys() == []

    def test_keys_lists_stored_keys_sorted(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("zz", make_object("a"))
        cache.put("aa", make_object("b"))
        assert cache.keys() == ["aa", "zz"]

    def test_index_checksum_mismatch_rebuilds_from_scan(self, tmp_path):
        """A hand-edited (or torn) v2 index fails its checksum and is
        rebuilt from the .obj files instead of being trusted."""
        import json

        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a", b"xyz"))
        original = cache.get("k").canonical_bytes()
        index_path = tmp_path / "index.json"
        payload = json.loads(index_path.read_text())
        payload["entries"]["k"]["size"] = 1  # tamper without re-checksumming
        index_path.write_text(json.dumps(payload))
        reopened = PersistentCodeCache(str(tmp_path))
        assert reopened.index_rebuilds == 1
        loaded = reopened.get("k")
        assert loaded is not None
        assert loaded.canonical_bytes() == original

    def test_missing_index_over_nonempty_store_rebuilds(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a", b"xyz"))
        (tmp_path / "index.json").unlink()
        reopened = PersistentCodeCache(str(tmp_path))
        assert reopened.index_rebuilds == 1
        assert reopened.get("k") is not None

    def test_fresh_directory_is_not_a_rebuild(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        assert cache.index_rebuilds == 0

    def test_legacy_flat_index_accepted_without_rebuild(self, tmp_path):
        """Pre-v2 caches stored a flat {key: meta} index; it is trusted
        as-is (no checksum to verify) so old stores open cleanly."""
        import json

        cache = PersistentCodeCache(str(tmp_path))
        cache.put("k", make_object("a", b"xyz"))
        index_path = tmp_path / "index.json"
        payload = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(payload["entries"]))
        reopened = PersistentCodeCache(str(tmp_path))
        assert reopened.index_rebuilds == 0
        assert reopened.get("k") is not None
