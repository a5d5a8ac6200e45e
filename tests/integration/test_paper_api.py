"""The paper's §4 user-facing API, transliterated.

The paper shows three snippets: a ``CmpProbe`` class with free-form
annotations, the ``PatchManager`` add/remove/change interface, and the
schedule → map → instrument → rebuild loop.  These tests write the same
code in this library's Python API and verify each claimed capability.
"""

from repro.core.engine import Odin
from repro.core.probe import InstructionProbe
from repro.frontend.codegen import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.instructions import IcmpInst
from repro.ir.types import FunctionType, I64, VOID
from repro.ir.values import ConstantInt
from repro.vm.interpreter import ProbeRuntime, VM

SOURCE = r"""
static int check(int value, int other) {
    if (value == other) return 1;
    if (value < 10) return 2;
    return 0;
}

int run_input(const char *data, long size) {
    if (size < 2) return -1;
    return check((int)data[0], (int)data[1]);
}

int main(void) { return 0; }
"""

_FN_TYPE = FunctionType(VOID, (I64, I64, I64))


class CmpProbe(InstructionProbe):
    """The paper's CmpProbe, §4 — including free-form annotations."""

    def __init__(self, the_cmp):
        super().__init__(the_cmp)
        self.the_cmp = the_cmp               # "The comparison to instrument."
        self.last_observed_value = None      # "Dynamic information from profiling."
        self.notes = {"anything": ["goes", "here"]}  # std::vector/DenseMap-ish

    # "The framework invokes this method to find the function to patch."
    def get_patch_target(self):
        return self.the_cmp.function

    def instrument(self, builder: IRBuilder, mapped, sched) -> None:
        # "User logic comes here.  It is similar to static instrumentation:
        #  just manipulate the IR with the builder."
        runtime = sched.declare_runtime("__cmplog_hit", _FN_TYPE)
        lhs = builder.zext(mapped.operands[0], I64) \
            if mapped.operands[0].type.is_integer() and mapped.operands[0].type.bits < 64 \
            else mapped.operands[0]
        rhs = builder.zext(mapped.operands[1], I64) \
            if mapped.operands[1].type.is_integer() and mapped.operands[1].type.bits < 64 \
            else mapped.operands[1]
        builder.call(runtime, [ConstantInt(I64, self.id), lhs, rhs], _FN_TYPE)


class Recorder(ProbeRuntime):
    def __init__(self):
        self.events = []

    def on_probe(self, kind, probe_id, args, vm):
        self.events.append((kind, probe_id, args))


def comparisons_of(module, fn_name):
    return [
        i for i in module.get(fn_name).instructions() if isinstance(i, IcmpInst)
    ]


class TestPaperSection4API:
    def test_probe_lifecycle_and_patch_loop(self):
        module = compile_source(SOURCE, "t")
        engine = Odin(module, preserve=("main", "run_input"))
        manager = engine.manager

        cmps = comparisons_of(module, "check")
        assert len(cmps) >= 2

        # Probes can be added...
        probe_a = manager.add(CmpProbe(cmps[0]))
        probe_b = manager.add(CmpProbe(cmps[1]))
        # ... queried ...
        assert manager.get_probe(probe_a.id) is probe_a
        # ... and their probe-specific state changed freely.
        probe_a.last_observed_value = 0xBEEF
        probe_a.notes["anything"].append("more")

        # getPatchTarget analogue resolves the function to patch.
        assert probe_a.get_patch_target().name == "check"

        engine.initial_build()

        recorder = Recorder()
        vm = VM(engine.executable, probe_runtime=recorder)
        addr = vm.alloc(3)
        vm.write_bytes(addr, bytes([5, 9]))
        result = vm.run("run_input", (addr, 2), reset=False)
        assert result.trap is None
        fired = {pid for _, pid, _ in recorder.events}
        assert probe_a.id in fired and probe_b.id in fired

        # Probes can be removed; the recompile drops their code.
        manager.remove(probe_b)
        report = engine.rebuild()
        assert report.probes_applied == 1  # only probe_a reapplied

        recorder.events.clear()
        vm = VM(engine.executable, probe_runtime=recorder)
        addr = vm.alloc(3)
        vm.write_bytes(addr, bytes([5, 9]))
        vm.run("run_input", (addr, 2), reset=False)
        fired = {pid for _, pid, _ in recorder.events}
        assert probe_a.id in fired and probe_b.id not in fired

    def test_scheduler_map_and_lookup(self):
        """The explicit schedule/map/rebuild loop from the paper listing."""
        module = compile_source(SOURCE, "t")
        engine = Odin(module, preserve=("main", "run_input"))
        cmps = comparisons_of(module, "check")
        probes = [engine.manager.add(CmpProbe(c)) for c in cmps]
        engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())

        sched = engine.manager.schedule()
        assert set(probes) <= set(sched.active_probes)
        for probe in sched.active_probes:
            if not isinstance(probe, CmpProbe):
                continue
            # "Get the temporary instruction cloned for this recompilation."
            the_cmp = sched.map(probe.the_cmp)
            assert isinstance(the_cmp, IcmpInst)
            assert the_cmp is not probe.the_cmp
            builder = IRBuilder.before(the_cmp)
            probe.instrument(builder, the_cmp, sched)
        report = sched.rebuild()
        assert engine.executable is not None
        assert report.fragment_ids

    def test_instrumentation_author_loc_claim(self):
        """§5.1: OdinCov's probe setup + instrumentation + prune logic is
        ~33 lines, versus ~600 for DrCov.  Count ours."""
        import inspect

        from repro.instrument import coverage

        probe_src = inspect.getsource(coverage.CovProbe)
        prune_src = inspect.getsource(coverage.OdinCov.prune_covered)
        setup_src = inspect.getsource(coverage.OdinCov.add_all_block_probes)
        total = sum(
            1
            for line in (probe_src + prune_src + setup_src).splitlines()
            if line.strip() and not line.strip().startswith(("#", '"""', "'''"))
        )
        assert total < 60, "probe logic must stay tiny (paper: 33 LoC)"
