"""ProbeSet: the shared probe registry every tool family sits on."""

from repro.core.engine import Odin
from repro.core.probe import BlockProbe
from repro.core.probeset import ProbeSet, SyncOutcome
from repro.ir.parser import parse_module

PROGRAM = """
define internal i32 @alpha(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define internal i32 @beta(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @alpha(i32 10)
  %b = call i32 @beta(i32 %a)
  ret i32 %b
}
"""


class NopProbe(BlockProbe):
    patchable = True
    family = "test"

    def __init__(self, fn, block):
        super().__init__(fn, block)
        self.hits = 0

    def instrument(self, builder, sched):
        pass


def make_set():
    engine = Odin(parse_module(PROGRAM), preserve=("main", "alpha", "beta"))
    probes = ProbeSet(engine.manager, family="test")
    installed = {}
    for name in ("alpha", "beta", "main"):
        fn = engine.module.get(name)
        installed[name] = probes.register(NopProbe(fn, fn.entry))
    return engine, probes, installed


class TestDictProtocol:
    def test_dict_compatibility(self):
        _, probes, installed = make_set()
        alpha = installed["alpha"]
        assert len(probes) == 3
        assert alpha.id in probes
        assert probes[alpha.id] is alpha
        assert probes.get(alpha.id) is alpha
        assert probes.get(-5) is None
        assert sorted(probes) == sorted(p.id for p in installed.values())
        assert set(probes.keys()) == {p.id for p in installed.values()}
        assert alpha in probes.values()
        assert (alpha.id, alpha) in probes.items()


class TestRegistration:
    def test_register_assigns_manager_id(self):
        engine, probes, installed = make_set()
        for probe in installed.values():
            assert probe.id >= 0
            assert engine.manager.get_probe(probe.id) is probe

    def test_discard_unregisters(self):
        engine, probes, installed = make_set()
        alpha = installed["alpha"]
        probes.discard(alpha.id)
        assert alpha.id not in probes
        assert alpha.id == -1  # manager.remove resets the id


class TestSymbolState:
    def test_for_symbol_and_symbols(self):
        _, probes, installed = make_set()
        assert probes.for_symbol("alpha") == [installed["alpha"]]
        assert probes.symbols() == {"alpha", "beta", "main"}

    def test_set_symbol_enabled_flips_and_counts(self):
        engine, probes, installed = make_set()
        engine.initial_build()
        assert probes.set_symbol_enabled("alpha", False) == 1
        assert not installed["alpha"].enabled
        # Idempotent: already-disabled probes don't count as flips.
        assert probes.set_symbol_enabled("alpha", False) == 0
        assert probes.set_symbol_enabled("alpha", True) == 1

    def test_manager_removal_leaves_the_set(self):
        engine, probes, installed = make_set()
        engine.initial_build()
        alpha = installed["alpha"]
        pid = alpha.id
        # Removed through the manager, not the set: the set drops it
        # too, so the flip loop never meets a dead probe.
        engine.manager.remove(alpha)
        assert pid not in probes
        assert probes.for_symbol("alpha") == []
        assert probes.set_symbol_enabled("alpha", False) == 0


class TestSyncCounts:
    def test_attributed_lands_on_annotation(self):
        _, probes, installed = make_set()
        alpha = installed["alpha"]
        outcome = probes.sync_counts({alpha.id: 7}, "hits")
        assert isinstance(outcome, SyncOutcome)
        assert outcome.attributed == 7 and outcome.unattributed == 0
        assert alpha.hits == 7
        probes.sync_counts({alpha.id: 3}, "hits")
        assert alpha.hits == 10  # accumulates

    def test_unknown_ids_tallied_not_dropped(self):
        _, probes, installed = make_set()
        alpha = installed["alpha"]
        outcome = probes.sync_counts({alpha.id: 2, 9999: 5}, "hits")
        assert outcome.attributed == 2
        assert outcome.unattributed == 5
