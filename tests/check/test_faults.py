"""Cache fault injection: every fault degrades to a miss, never wrong code."""

import pytest

from repro.check.faults import run_fault_checks
from repro.core.engine import compile_fragment, object_fingerprint
from repro.frontend.codegen import compile_source
from repro.ir.printer import print_module
from repro.service.cache import PersistentCodeCache

SRC = """
int run_input(const char *data, long size) { return (int)size; }
int main(void) { return 0; }
"""


def small_object():
    return compile_fragment(print_module(compile_source(SRC, "small")), "small")


class TestFaultSuite:
    def test_all_faults_degrade_to_miss(self):
        assert run_fault_checks() == []

    def test_unknown_fault_kind_rejected(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.inject_fault("set-on-fire")

    def test_obj_fault_needs_key(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.inject_fault("truncate-obj")


class TestIndividualFaults:
    @pytest.mark.parametrize("kind", ["truncate-obj", "corrupt-obj", "torn-obj"])
    def test_damaged_entry_misses_and_counts(self, tmp_path, kind):
        cache = PersistentCodeCache(str(tmp_path))
        obj = small_object()
        cache.put("k" * 64, obj)
        cache.inject_fault(kind, key="k" * 64)
        assert cache.get("k" * 64) is None
        assert cache.integrity_failures == 1
        # Recovery: a re-put round-trips byte-identically.
        cache.put("k" * 64, obj)
        assert object_fingerprint(cache.get("k" * 64)) == object_fingerprint(obj)

    def test_stale_index_entry_dropped_on_reopen(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path), flush_interval=1)
        cache.put("k" * 64, small_object())
        cache.inject_fault("stale-index")
        reopened = PersistentCodeCache(str(tmp_path))
        assert len(reopened) == 1            # stale ghost not resurrected
        assert reopened.get("0" * 64) is None
        assert reopened.get("k" * 64) is not None

    def test_corrupt_index_rebuilds_from_disk_scan(self, tmp_path):
        cache = PersistentCodeCache(str(tmp_path))
        obj = small_object()
        cache.put("k" * 64, obj)
        cache.inject_fault("corrupt-index")
        reopened = PersistentCodeCache(str(tmp_path))
        # Self-healing: the intact .obj blob is recovered by the disk
        # scan instead of being orphaned behind the unreadable index.
        got = reopened.get("k" * 64)
        assert got is not None  # recovered, not an exception or a loss
        assert object_fingerprint(got) == object_fingerprint(obj)
        assert reopened.index_rebuilds == 1
