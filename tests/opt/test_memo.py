"""Pass memoization: keys, replay equivalence, the memo's size budget.

The tier-2 contract: memoizing optimized IR on (input-IR fingerprint,
pass-pipeline identity) must be invisible in the artifacts — a memo-hit
compile yields byte-identical objects to a cold compile — and only
visible in the cost accounting (optimize share zero, backend share
kept).
"""

import pytest

from repro.core.engine import compile_fragment, object_fingerprint
from repro.frontend.codegen import compile_source
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.opt.memo import MemoEntry, memo_key, pipeline_identity
from repro.service.cache import PassMemoCache

SOURCE = r"""
int work(int x) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < x; i = i + 1) acc = acc + i * x;
    if (acc > 100) return acc - 100;
    return acc;
}

int main(void) { return work(9); }
"""


def fragment():
    """The fragment's canonical text, as the engine's split prints it."""
    return print_module(compile_source(SOURCE, "memofrag"))


class TestMemoKey:
    def test_key_is_deterministic(self):
        text = fragment()
        assert memo_key(text, 2, False) == memo_key(text, 2, False)

    def test_key_depends_on_input_ir(self):
        a = fragment()
        b = a.replace("9", "7")
        assert memo_key(a, 2, False) != memo_key(b, 2, False)

    def test_key_depends_on_pipeline(self):
        text = fragment()
        keys = {
            memo_key(text, 0, False),
            memo_key(text, 2, False),
            memo_key(text, 2, True),
        }
        assert len(keys) == 3

    def test_pipeline_identity_names_real_passes(self):
        ident = pipeline_identity(2, False)
        assert "o2" in ident
        assert ident != pipeline_identity(0, False)
        # Sanitized pipelines are a distinct identity even at the same
        # opt level: the sanitizer interleaves with the passes.
        assert ident != pipeline_identity(2, True)


class TestMemoReplay:
    def test_hit_skips_optimize_and_matches_cold_bytes(self):
        memo = PassMemoCache()
        cold = compile_fragment(fragment(), "memofrag", 2, memo=memo)
        assert memo.puts == 1 and memo.hits == 0
        assert not cold.stage_breakdown.get("memo_hit")

        warm = compile_fragment(fragment(), "memofrag", 2, memo=memo)
        assert memo.hits == 1
        assert warm.stage_breakdown["memo_hit"] is True
        assert warm.stage_breakdown["optimize_ms"] == 0.0
        assert warm.stage_breakdown["passes"] == []
        assert warm.stage_breakdown["isel_ms"] > 0.0
        # The replay is charged only the backend share.
        assert warm.compile_ms < cold.compile_ms
        assert warm.compile_ms == pytest.approx(
            cold.stage_breakdown["isel_ms"]
        )
        # And the artifact is byte-identical.
        assert object_fingerprint(warm) == object_fingerprint(cold)

    def test_memoized_ir_roundtrips_through_parser(self):
        """The snapshot is parseable text — the replay's preconditions."""
        memo = PassMemoCache()
        compile_fragment(fragment(), "memofrag", 2, memo=memo)
        ((entry, _size),) = memo._entries.values()
        assert isinstance(entry, MemoEntry)
        replayed = parse_module(entry.ir_text, "memofrag")
        assert print_module(replayed) == entry.ir_text

    def test_different_opt_levels_do_not_alias(self):
        memo = PassMemoCache()
        compile_fragment(fragment(), "memofrag", 2, memo=memo)
        o0 = compile_fragment(fragment(), "memofrag", 0, memo=memo)
        assert memo.hits == 0 and memo.puts == 2
        assert not o0.stage_breakdown.get("memo_hit")


class TestMemoPayloadIntegrity:
    def test_in_memory_memo_shares_budget_machinery(self):
        memo = PassMemoCache(max_bytes=1)
        memo.put("k", MemoEntry("x" * 64, ()))
        # A single oversized entry is rejected, exactly like the object
        # cache's budget handling.
        assert memo.rejected == 1
        assert memo.get("k") is None
