"""Stage-1 toggles against the delete-and-remap reference.

``toggle_object`` deletes disabled probe sites from a master object by
slicing between them and rebuilds only the branches whose targets move.
The reference below is the toggle it replaced, which rebuilt every
function holding a disabled site one instruction at a time and remapped
every branch through an old->new index map.  Both must produce the same
bytes, share the same function instances, and leave the master (a
code-cache entry) untouched.
"""

import dataclasses
import pickle
import random
from typing import FrozenSet, Iterable, List

import pytest

from repro.backend.machine import MachineFunction, MachineInst, ObjectFile
from repro.backend.patching import SiteIndex, probe_site_ids, toggle_object
from repro.core.engine import TIER_FULL, TIER_PATCH, Odin
from repro.errors import BackendError
from repro.fuzz.executor import PRESERVED
from repro.instrument.asan import ASanTool
from repro.instrument.cmplog import add_cmp_probes
from repro.instrument.coverage import OdinCov
from repro.instrument.ubsan import UBSanTool
from repro.programs.registry import get_program, program_names

# -- the reference: the delete-and-remap toggle, verbatim ------------------------


def _has_site(mf: MachineFunction, disabled: FrozenSet[int]) -> bool:
    return any(
        inst.op == "probe" and inst.probe_id in disabled for inst in mf.insts
    )


def toggle_function(
    mf: MachineFunction, disabled: FrozenSet[int]
) -> MachineFunction:
    """Copy of *mf* with the sites of every probe id in *disabled* deleted.

    Branch targets and switch tables are remapped through an old->new
    index map; everything else (frame, registers, block count/names) is
    structurally unchanged because probe instructions touch none of it.
    """
    if not _has_site(mf, disabled):
        return mf
    kept: List[MachineInst] = []
    index_map = {}
    for old_index, inst in enumerate(mf.insts):
        if inst.op == "probe" and inst.probe_id in disabled:
            continue
        index_map[old_index] = len(kept)
        kept.append(inst)

    def remap(old_target: int) -> int:
        # Probes are never block leaders (the `bb` marker is), so every
        # branch target survives deletion; the dict hit is guaranteed.
        return index_map[old_target]

    fixed: List[MachineInst] = []
    for inst in kept:
        if inst.targets or inst.table:
            inst = dataclasses.replace(
                inst,
                targets=tuple(remap(t) for t in inst.targets),
                table=tuple((v, remap(t)) for v, t in inst.table),
            )
        fixed.append(inst)
    return dataclasses.replace(
        mf,
        insts=fixed,
        block_names=dict(mf.block_names),
    )


def reference_toggle_object(master: ObjectFile, disabled: Iterable[int]) -> ObjectFile:
    disabled = frozenset(disabled)
    if not disabled:
        return master
    replaced = {}
    for name, mf in master.functions.items():
        toggled = toggle_function(mf, disabled)
        if toggled is not mf:
            replaced[name] = toggled
    if not replaced:
        return master
    functions = {
        name: replaced.get(name, mf) for name, mf in master.functions.items()
    }
    return dataclasses.replace(
        master,
        functions=functions,
        data=dict(master.data),
        aliases=dict(master.aliases),
        imports=list(master.imports),
    )


# -- inputs ------------------------------------------------------------------------


def coverage(engine):
    OdinCov(engine).add_all_block_probes()


def coverage_and_sanitizers(engine):
    coverage(engine)
    ASanTool(engine, trap=False).add_all_access_probes()
    UBSanTool(engine, trap=False).add_all_overflow_probes()
    add_cmp_probes(engine)


SANITIZED = ("sqlite", "libxml2", "json", "lcms")
CASES = [(name, coverage) for name in program_names()] + [
    (name, coverage_and_sanitizers) for name in SANITIZED
]


def build(program, attach):
    engine = Odin(get_program(program).compile(), preserve=PRESERVED)
    attach(engine)
    engine.initial_build()
    return engine


def disabled_sets(sites, rng):
    """Empty, one site, a quarter, half, every site, and an id no master
    carries."""
    ordered = sorted(sites)
    yield frozenset()
    yield frozenset(rng.sample(ordered, 1))
    yield frozenset(rng.sample(ordered, len(ordered) // 4))
    yield frozenset(rng.sample(ordered, len(ordered) // 2))
    yield frozenset(ordered)
    yield frozenset({max(ordered) + 1_000_000})


def holds_site(mf, disabled):
    return any(i.op == "probe" and i.probe_id in disabled for i in mf.insts)


def check_toggle(master, disabled, index):
    got = toggle_object(master, disabled, index)
    want = reference_toggle_object(master, disabled)
    if want is not master:
        assert got.canonical_bytes() == want.canonical_bytes()
        assert pickle.dumps(got) == pickle.dumps(want)
    # Instances are what `patch_image` counts as replaced functions.
    holding = {n for n, mf in master.functions.items() if holds_site(mf, disabled)}
    for name, mf in master.functions.items():
        assert (got.functions[name] is mf) == (name not in holding)
    assert (got is master) == (not holding)


def switches_moved(master, disabled):
    """Functions with a switch table target past a deleted site."""
    names = set()
    for name, mf in master.functions.items():
        deleted = [
            pos for pos, inst in enumerate(mf.insts)
            if inst.op == "probe" and inst.probe_id in disabled
        ]
        if deleted and any(
            inst.table and max(t for _v, t in inst.table) > deleted[0]
            for inst in mf.insts
        ):
            names.add(name)
    return names


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "program, attach", CASES, ids=[f"{p}-{a.__name__}" for p, a in CASES]
)
def test_toggle_matches_delete_and_remap(program, attach):
    engine = build(program, attach)
    rng = random.Random(f"{program}/{attach.__name__}")
    toggles = 0
    moved = set()
    for fid in sorted(engine._masters):
        master = engine._masters[fid]
        sites = probe_site_ids(master)
        if not sites:
            continue
        before = (master.canonical_bytes(), pickle.dumps(master))
        index = SiteIndex(master)
        for disabled in disabled_sets(sites, rng):
            check_toggle(master, disabled, index)
            toggles += 1
            moved |= switches_moved(master, disabled)
        # Without a kept index, one is built for the call.
        half = frozenset(sorted(sites)[::2])
        assert (
            toggle_object(master, half).canonical_bytes()
            == reference_toggle_object(master, half).canonical_bytes()
        )
        assert (master.canonical_bytes(), pickle.dumps(master)) == before
    assert toggles > 0
    if program == "sqlite":
        assert "vdbe_exec" in moved


def test_engine_toggles_match_the_reference_across_a_new_master():
    """The engine's kept index serves patch-tier flips, and a full rebuild
    (a new master) replaces it; the masters pickle as before throughout."""
    engine = build("json", coverage)
    probes = sorted(engine.manager, key=lambda p: p.id)

    def check_cache():
        for fid, master in engine._masters.items():
            disabled = {
                p.id for p in probes
                if not p.enabled and p.id in probe_site_ids(master)
            }
            assert (
                engine.cache[fid].canonical_bytes()
                == reference_toggle_object(master, disabled).canonical_bytes()
            )

    pickles = {fid: pickle.dumps(m) for fid, m in engine._masters.items()}
    for probe in probes[::3]:
        engine.manager.disable(probe)
    assert engine.rebuild_if_needed().tier == TIER_PATCH
    check_cache()
    for probe in probes[::6]:
        engine.manager.enable(probe)
    assert engine.rebuild_if_needed().tier == TIER_PATCH
    check_cache()
    assert {fid: pickle.dumps(m) for fid, m in engine._masters.items()} == pickles

    engine.manager.remove(probes[1])
    probes.remove(probes[1])
    assert engine.rebuild_if_needed().tier == TIER_FULL
    for probe in probes[1::4]:
        if probe.enabled:
            engine.manager.disable(probe)
    assert engine.rebuild_if_needed().tier == TIER_PATCH
    check_cache()


def test_probe_at_a_branch_target_is_rejected():
    mf = MachineFunction(
        "f", "external",
        insts=[
            MachineInst("bb", imm=0),
            MachineInst("jmp", targets=(2,)),
            MachineInst("probe", probe_kind="cov", probe_id=7),
            MachineInst("ret"),
        ],
    )
    master = ObjectFile("o", functions={"f": mf})
    with pytest.raises(BackendError, match="branch target"):
        SiteIndex(master)
