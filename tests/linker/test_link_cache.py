"""Direct unit tests for the bounded LRU :class:`LinkCache`.

No build path uses the cache; it is kept for the benchmark's layer
tracer.  Until it goes, these tests pin down its contract — LRU eviction
order, hit/miss accounting, bound validation, and the epoch semantics of
``clear()`` — and check that no other module names it or
``PassMemoCache``.
"""

import glob
import os
import re

import pytest

import repro
from repro.linker.cache import LinkCache


def _key(tag: str):
    return (f"variant={tag}", f"obj-{tag}")


class TestLinkCacheLRU:
    def test_eviction_drops_least_recently_used(self):
        cache = LinkCache(max_entries=3)
        for tag in ("a", "b", "c"):
            cache.put(_key(tag), f"exe-{tag}")
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get(_key("a")) == "exe-a"
        cache.put(_key("d"), "exe-d")
        assert len(cache) == 3
        assert cache.get(_key("b")) is None
        assert cache.get(_key("a")) == "exe-a"
        assert cache.get(_key("c")) == "exe-c"
        assert cache.get(_key("d")) == "exe-d"

    def test_put_refreshes_recency(self):
        cache = LinkCache(max_entries=2)
        cache.put(_key("a"), "exe-a")
        cache.put(_key("b"), "exe-b")
        # Re-putting "a" makes "b" the eviction candidate.
        cache.put(_key("a"), "exe-a2")
        cache.put(_key("c"), "exe-c")
        assert cache.get(_key("b")) is None
        assert cache.get(_key("a")) == "exe-a2"

    def test_eviction_respects_bound(self):
        cache = LinkCache(max_entries=2)
        for tag in "abcdef":
            cache.put(_key(tag), f"exe-{tag}")
        assert len(cache) == 2


class TestLinkCacheAccounting:
    def test_hit_and_miss_counters(self):
        cache = LinkCache()
        assert cache.get(_key("a")) is None
        cache.put(_key("a"), "exe-a")
        assert cache.get(_key("a")) == "exe-a"
        assert cache.get(_key("a")) == "exe-a"
        assert cache.get(_key("x")) is None
        assert cache.hits == 2
        assert cache.misses == 2
        assert cache.stats() == {"entries": 1, "hits": 2, "misses": 2}

    def test_clear_resets_stats(self):
        # Regression: clear() used to drop entries but keep the old
        # epoch's hit/miss counters, so post-clear stats() lied.
        cache = LinkCache()
        cache.put(_key("a"), "exe-a")
        cache.get(_key("a"))
        cache.get(_key("missing"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}
        # The new epoch accounts from zero.
        assert cache.get(_key("a")) is None
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 1}

    def test_reset_stats_keeps_entries(self):
        cache = LinkCache()
        cache.put(_key("a"), "exe-a")
        cache.get(_key("a"))
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.get(_key("a")) == "exe-a"


class TestLinkCacheValidation:
    @pytest.mark.parametrize("bad", [0, -1, -32])
    def test_rejects_nonpositive_bound(self, bad):
        with pytest.raises(ValueError):
            LinkCache(max_entries=bad)

    def test_minimum_bound_of_one(self):
        cache = LinkCache(max_entries=1)
        cache.put(_key("a"), "exe-a")
        cache.put(_key("b"), "exe-b")
        assert len(cache) == 1
        assert cache.get(_key("b")) == "exe-b"


class TestTracerOnlyNames:
    def test_no_other_module_names_them(self):
        """``LinkCache`` and ``PassMemoCache`` are kept only for the
        benchmark's layer tracer: no build path may pick them up again."""
        root = os.path.dirname(repro.__file__)
        own = {
            os.path.join(root, "linker", "cache.py"),
            os.path.join(root, "service", "cache.py"),
        }
        named = []
        for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
            with open(path, encoding="utf-8") as fh:
                if path not in own and re.search(
                    r"\b(LinkCache|PassMemoCache)\b", fh.read()
                ):
                    named.append(os.path.relpath(path, root))
        assert named == []
