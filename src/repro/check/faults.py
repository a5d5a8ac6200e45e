"""Persistent-cache fault injection: every fault must degrade to a miss.

The persistent code cache sits between the engine and wrong code: a
truncated ``.obj``, a torn write, or a corrupt/stale ``index.json`` must
never surface as a *different* object under a content key — only as a
cache miss that costs one recompile.  This module proves it by storing
real compiled fragments, injecting each fault kind from
``PersistentCodeCache.FAULT_KINDS``, and asserting the cache either
misses or returns byte-identical code, then recovers on re-put.

Index faults are checked through a *reopen* of the directory, modelling
a service restart over a damaged store.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, List, Optional

from repro.core.engine import compile_fragment, object_fingerprint
from repro.frontend.codegen import compile_source
from repro.ir.printer import print_module
from repro.service.cache import PersistentCodeCache

# Two tiny translation units compiled into genuine object files; keyed
# like the engine would (any distinct stable keys work for the store).
_SOURCES = {
    "fault_a": """
int helper(int x) { return x * 3 + 1; }
int run_input(const char *data, long size) {
    if (size > 0) return helper((int)data[0]);
    return 0;
}
int main(void) { return helper(2); }
""",
    "fault_b": """
int acc;
int add(int x) { acc = acc + x; return acc; }
int run_input(const char *data, long size) {
    long i;
    for (i = 0; i < size; i = i + 1) add((int)data[i]);
    return acc;
}
int main(void) { return 0; }
""",
}


def _compiled_corpus() -> Dict[str, object]:
    objs = {}
    for name, source in _SOURCES.items():
        text = print_module(compile_source(source, name))
        objs[f"{name:0<64}"] = compile_fragment(text, name)
    return objs


def run_fault_checks(
    directory: Optional[str] = None, *, kinds=None
) -> List[str]:
    """Run every fault scenario; returns failure descriptions (empty = ok)."""
    failures: List[str] = []
    kinds = tuple(kinds) if kinds is not None else PersistentCodeCache.FAULT_KINDS
    workdir = directory or tempfile.mkdtemp(prefix="repro-check-faults-")
    try:
        for kind in kinds:
            failures.extend(_check_one_fault(workdir, kind))
    finally:
        if directory is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return failures


def _check_one_fault(workdir: str, kind: str) -> List[str]:
    failures: List[str] = []
    cache_dir = tempfile.mkdtemp(prefix=f"{kind}-", dir=workdir)
    cache = PersistentCodeCache(cache_dir, flush_interval=1)
    corpus = _compiled_corpus()
    expected = {key: object_fingerprint(obj) for key, obj in corpus.items()}
    for key, obj in corpus.items():
        cache.put(key, obj)
    victim = sorted(corpus)[0]

    cache.inject_fault(kind, key=victim)
    if kind.endswith("-obj"):
        probe = cache
    else:
        # Index faults are only visible to a fresh reader of the
        # directory — the running instance holds the index in memory.
        probe = PersistentCodeCache(cache_dir, flush_interval=1)

    for key in sorted(corpus):
        got = probe.get(key)
        if got is not None and object_fingerprint(got) != expected[key]:
            failures.append(
                f"{kind}: key {key[:12]} returned WRONG CODE instead of a miss"
            )
    if kind.endswith("-obj") and probe.get(victim) is not None:
        # Damaged entries must have been dropped, not resurrected.
        failures.append(f"{kind}: damaged entry {victim[:12]} still loads")

    # Whatever was lost must be recoverable by a plain re-put.
    for key, obj in corpus.items():
        if probe.get(key) is None:
            probe.put(key, obj)
            got = probe.get(key)
            if got is None:
                failures.append(f"{kind}: re-put of {key[:12]} did not recover")
            elif object_fingerprint(got) != expected[key]:
                failures.append(f"{kind}: re-put of {key[:12]} returned wrong code")
    return failures
