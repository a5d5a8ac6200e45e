"""The split's compile boundary: each fragment's canonical IR text.

``Odin._split_fragment`` prints every changed fragment straight from the
instrumented temporary IR.  The reference is the clone that text
replaces: ``print_module`` of ``extract_module`` after
``apply_fragment_linkage``.  Content keys and persistent caches carry
over only if the two are equal byte for byte, and
``compile_fragment`` parses the text once, so it must also survive a
parse/print round trip.
"""

import pytest

import repro.core.scheduler as core_scheduler
import repro.ir.clone as ir_clone
import repro.ir.parser as ir_parser
from repro.core.engine import TIER_CACHE, Odin
from repro.core.partition import FragmentDefinition, apply_fragment_linkage
from repro.frontend.codegen import compile_source
from repro.fuzz.executor import PRESERVED
from repro.instrument.asan import ASanTool
from repro.instrument.cmplog import add_cmp_probes
from repro.instrument.coverage import OdinCov
from repro.instrument.ubsan import UBSanTool
from repro.ir.clone import ExtractionPlan, extract_module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.programs.registry import get_program, program_names
from repro.service import RecompilationService


def coverage(engine):
    OdinCov(engine).add_all_block_probes()


def coverage_and_sanitizers(engine):
    OdinCov(engine).add_all_block_probes()
    ASanTool(engine, trap=False).add_all_access_probes()
    UBSanTool(engine, trap=False).add_all_overflow_probes()
    add_cmp_probes(engine)


def reference_text(engine, temp, fragment):
    module = extract_module(
        temp, fragment.symbols, copy_on_use=engine.fragdef.copy_on_use,
        name=engine._fragment_name(fragment),
    )
    apply_fragment_linkage(module, engine.fragdef)
    return print_module(module)


def check_splits(engine):
    """Schedule the pending probe changes, instrument the temporary IR and
    check the split of every changed fragment; returns how many."""
    sched = engine.manager.schedule()
    sched.apply_probes()
    temp = sched.temp_module
    for fragment in sched.changed_fragments:
        text = engine._split_fragment(temp, fragment)
        assert text == reference_text(engine, temp, fragment), (
            f"fragment #{fragment.id} of {engine.module.name}"
        )
        name = engine._fragment_name(fragment)
        assert print_module(parse_module(text, name)) == text
    # The text compiles the same whether or not a rebuild follows, so the
    # states below are reached without compiling.
    engine.manager.clear_dirty()
    return len(sched.changed_fragments)


@pytest.mark.parametrize("attach", [coverage, coverage_and_sanitizers])
@pytest.mark.parametrize("program", program_names())
def test_split_text_equals_printed_extraction(program, attach):
    engine = Odin(get_program(program).compile(), preserve=PRESERVED)
    attach(engine)
    probes = sorted(engine.manager, key=lambda p: p.id)
    assert probes

    # Initial build: every fragment.
    engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())
    assert check_splits(engine) == engine.num_fragments

    # A third of the probes disabled: the fragments they sit in.
    for probe in probes[::3]:
        engine.manager.disable(probe)
    assert check_splits(engine) > 0

    # Another third removed, then every fragment rebuilt.
    for probe in probes[1::3]:
        engine.manager.remove(probe)
    engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())
    assert check_splits(engine) == engine.num_fragments


def value_names(fn):
    return [inst.name for inst in fn.instructions() if not inst.type.is_void()]


class TestPrintedAsCloned:
    SOURCE = """
int helper(int x) { if (x > 3) return x * 2; return x + 1; }
int main(void) { return helper(5); }
"""

    def test_function_the_clone_renames(self):
        """A function whose names the clone would change (a duplicate
        value name here) prints as its clone does, not as itself."""
        module = compile_source(self.SOURCE, "renames")
        helper = module.get("helper")
        values = [inst for inst in helper.instructions() if not inst.type.is_void()]
        values[1].name = values[0].name
        reference = extract_module(module, ["helper"])
        assert value_names(reference.get("helper")) != value_names(helper)
        text = ExtractionPlan(module, ["helper"]).text()
        assert text == print_module(reference)
        assert print_module(parse_module(text, "renames")) == text

    def test_unreachable_blocks_and_their_phi_incomings_dropped(self):
        module = parse_module("""
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %join, label %a
dead:
  br label %join
a:
  br label %join
join:
  %p = phi i32 [ 1, %entry ], [ 3, %dead ], [ 2, %a ]
  ret i32 %p
}
""")
        text = ExtractionPlan(module, ["f"], exported=set()).text()
        reference = extract_module(module, ["f"])
        apply_fragment_linkage(reference, FragmentDefinition("odin"))
        assert text == print_module(reference)
        assert "dead" not in text
        assert text.startswith("define internal i32 @f(")


class TestCodeCacheHit:
    def test_hit_builds_no_fragment_ir(self, monkeypatch):
        """A rebuild served entirely from the code cache parses nothing
        and extracts only the temporary IR."""
        module = get_program("json").compile()
        service = RecompilationService(workers=1, worker_mode="serial")
        try:
            for target in ("json#0", "json#1"):
                engine = service.register_target(target, module, preserve=PRESERVED)
                OdinCov(engine).add_all_block_probes()
            first = service.build("json#0")
            assert first.cache_hits == 0

            calls = {"parse_module": 0, "extract_module_ex": 0}

            def counting(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            monkeypatch.setattr(
                ir_parser, "parse_module",
                counting("parse_module", ir_parser.parse_module),
            )
            extract = counting("extract_module_ex", ir_clone.extract_module_ex)
            monkeypatch.setattr(ir_clone, "extract_module_ex", extract)
            monkeypatch.setattr(core_scheduler, "extract_module_ex", extract)

            hit = service.build("json#1")
        finally:
            service.close()
        assert hit.fragment_ids
        assert set(hit.fragment_tiers.values()) == {TIER_CACHE}
        assert hit.cache_hits == len(hit.fragment_ids)
        assert calls == {"parse_module": 0, "extract_module_ex": 1}
