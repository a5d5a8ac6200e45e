"""Tests for OdinCov and the SanitizerCoverage analogue."""

import pytest

from repro.core.engine import Odin
from repro.instrument.coverage import CoverageRuntime, OdinCov
from repro.instrument.sancov import build_sancov, instrument_sancov
from repro.ir.parser import parse_module
from repro.opt.pipeline import optimize
from repro.vm.interpreter import VM

# The islower shape (Figure 2): O2 folds classify to a single block, so
# late (SanCov) instrumentation sees fewer sites than instrument-first.
PROGRAM = """
define i32 @classify(i8 %c) {
entry:
  %low = icmp sge i8 %c, 97
  br i1 %low, label %check_hi, label %end
check_hi:
  %hi = icmp sle i8 %c, 122
  br label %end
end:
  %r = phi i1 [ false, %entry ], [ %hi, %check_hi ]
  %z = zext i1 %r to i32
  ret i32 %z
}

define i32 @main() {
entry:
  %a = call i32 @classify(i8 33)
  ret i32 %a
}
"""


def make_tool(prune=True, strategy="odin"):
    engine = Odin(parse_module(PROGRAM), strategy=strategy, preserve=("main", "classify"))
    tool = OdinCov(engine, prune=prune)
    tool.add_all_block_probes()
    tool.build()
    return tool


class TestOdinCov:
    def test_probe_per_block(self):
        tool = make_tool()
        # classify: entry + end (check_hi is a forwarding block... it has
        # the icmp, so it counts too) = 3, plus main = 4 probes.
        assert len(tool.probes) == 4

    def test_counters_reflect_execution(self):
        tool = make_tool()
        vm = tool.make_vm()
        assert vm.run("main").exit_code == 0
        counts = tool.runtime.counters
        # '!' fails the low check: entry + end + main covered, not check_hi.
        assert len(tool.runtime.covered_ids()) == 3

    def test_hit_counts_sync_to_probe_annotations(self):
        tool = make_tool()
        tool.make_vm().run("main")
        tool.sync_hit_counts()
        assert any(p.hits >= 1 for p in tool.probes.values())

    def test_prune_removes_covered_probes(self):
        tool = make_tool()
        tool.make_vm().run("main")
        report = tool.prune_covered()
        assert report.pruned == 3
        assert report.rebuild is not None
        # The probe on the never-executed check_hi block survives.
        assert report.remaining == len(tool.probes) == 1

    def test_pruned_binary_has_lower_cost(self):
        tool = make_tool()
        before = tool.make_vm().run("main").cycles
        tool.prune_covered()
        after = tool.make_vm().run("main").cycles
        assert after < before

    def test_noprune_keeps_probes(self):
        tool = make_tool(prune=False)
        tool.make_vm().run("main")
        report = tool.prune_covered()
        assert report.pruned == 0 and report.rebuild is None

    def test_noprune_prune_covered_still_syncs_hit_counts(self):
        # Regression: the NoPrune early return used to skip the profile
        # sync, so CovProbe.hits stayed 0 forever in NoPrune mode.
        tool = make_tool(prune=False)
        tool.make_vm().run("main")
        report = tool.prune_covered()
        assert report.remaining == len(tool.probes)
        assert sum(p.hits for p in tool.probes.values()) > 0

    def test_noprune_sync_clears_counters_no_double_count(self):
        tool = make_tool(prune=False)
        tool.make_vm().run("main")
        tool.prune_covered()
        first = {pid: p.hits for pid, p in tool.probes.items()}
        # No executions in between: a second cadence point must not
        # re-accumulate the same counters.
        tool.prune_covered()
        assert {pid: p.hits for pid, p in tool.probes.items()} == first

    def test_sync_tallies_unattributed_counters(self):
        # Regression: counters whose probe vanished between execution and
        # sync (pruned mid-window) were silently discarded.
        tool = make_tool(prune=False)
        tool.make_vm().run("main")
        counts = tool.profile_counts()
        dropped = next(iter(tool.runtime.covered_ids()))
        tool.probes.discard(dropped)
        outcome = tool.sync_profiles()
        assert outcome.unattributed == counts[dropped]
        assert tool.unattributed == counts[dropped]
        # The lifetime tally accumulates across syncs.
        tool.make_vm().run("main")
        tool.sync_profiles()
        assert tool.unattributed == 2 * counts[dropped]

    def test_uncovered_probe_survives_and_still_fires(self):
        tool = make_tool()
        tool.make_vm().run("main")
        tool.prune_covered()
        # Execute the path that was never covered: a lowercase letter
        # takes the check_hi block where the surviving probe lives.
        vm = tool.make_vm()
        result = vm.run("classify", (ord("h"),))
        assert result.exit_code == 1
        assert tool.runtime.covered_ids()  # the surviving probe fired


class TestSanCov:
    def test_instruments_after_optimization(self):
        m = parse_module(PROGRAM)
        optimize(m, 2)
        blocks_after_opt = sum(len(f.blocks) for f in m.defined_functions())
        sites = instrument_sancov(m)
        assert len(sites) == blocks_after_opt

    def test_feedback_distortion_vs_odincov(self):
        """Figure 2's consequence measured: SanCov sees fewer distinct
        coverage sites than instrument-first OdinCov on the same program."""
        tool = make_tool(prune=False)
        san = build_sancov(parse_module(PROGRAM))
        assert san.num_probes < len(tool.probes)

    def test_sancov_executes_and_counts(self):
        san = build_sancov(parse_module(PROGRAM))
        runtime = CoverageRuntime()
        vm = VM(san.executable, probe_runtime=runtime)
        assert vm.run("main").exit_code == 0
        assert runtime.counters

    def test_probe_sites_map_to_functions(self):
        san = build_sancov(parse_module(PROGRAM))
        for fn_name, block_name in san.probe_sites.values():
            assert fn_name in ("classify", "main")
