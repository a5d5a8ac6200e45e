"""Stage-1 probe patching: flip probe sites in cached object files.

Algorithm 2's fast path services counter-style probe flips (coverage
enable/disable) without re-optimizing or re-lowering anything.  The trick
that makes this byte-exact is *sites-always-compiled*: the engine
instruments every patchable probe into the fragment IR regardless of its
enabled state, compiles that to a **master** object, and then realizes
the current toggle state by deleting the disabled sites from a copy of
the master (:func:`toggle_object`).  Every tier — full recompile, cache
hit, stage-1 patch — goes through the same toggle, so a patched object is
byte-identical to a from-scratch build *by construction*, and ``repro
check --tiers`` proves it empirically.

Why deleting a probe site cannot perturb the rest of the code:

* a patchable probe lowers to exactly one ``probe`` machine instruction
  with no destination register, no source registers and no argument
  registers, so register allocation and every other instruction's cost
  are unaffected by its presence;
* blocks always begin with their ``bb`` marker, so a probe instruction is
  never a branch target (:class:`SiteIndex` rejects a master where one
  is); deleting it only *shifts* later instruction indices.

What a toggle costs: a master's :class:`SiteIndex` records, per
function, where its probe sites sit and where its branches sit, ordered
by their last target.  A toggle copies the instructions between deleted
sites as list slices and rebuilds only the branches with a target past
the first deleted site, moving each target down by the number of
deleted sites before it.  Work therefore follows the sites deleted and
the branches that move, not the length of the function.

Objects are treated as immutable cache entries throughout: toggling
returns fresh :class:`ObjectFile` / :class:`MachineFunction` instances
and shares every function (and the whole object) that holds no affected
site, every instruction that does not move, and the master's data,
aliases and imports.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.backend.machine import MachineFunction, MachineInst, ObjectFile
from repro.errors import BackendError

__all__ = [
    "FunctionSites",
    "SiteIndex",
    "probe_site_ids",
    "toggle_function",
    "toggle_object",
]


def probe_site_ids(obj: ObjectFile) -> FrozenSet[int]:
    """All probe ids with a site compiled into *obj* (any kind)."""
    ids: Set[int] = set()
    for mf in obj.functions.values():
        for inst in mf.insts:
            if inst.op == "probe":
                ids.add(inst.probe_id)
    return frozenset(ids)


class FunctionSites(NamedTuple):
    """Where one master function's probe sites and branches sit."""

    # (position, probe id) of every probe site, by ascending position.
    probes: Tuple[Tuple[int, int], ...]
    # Position of every instruction with a target or a switch table,
    # ordered by its last (largest) target; `last_targets` holds those
    # targets, ascending, for bisection.
    branches: Tuple[int, ...]
    last_targets: Tuple[int, ...]


def _function_sites(mf: MachineFunction) -> Optional[FunctionSites]:
    """*mf*'s sites, or None when it holds no probe site."""
    probes: List[Tuple[int, int]] = []
    branches: List[Tuple[int, int]] = []
    targets: Set[int] = set()
    for position, inst in enumerate(mf.insts):
        if inst.op == "probe":
            probes.append((position, inst.probe_id))
        elif inst.targets or inst.table:
            every = inst.targets + tuple(t for _v, t in inst.table)
            targets.update(every)
            branches.append((max(every), position))
    if not probes:
        return None
    for position, probe_id in probes:
        if position in targets:
            raise BackendError(
                f"probe {probe_id} at instruction {position} of @{mf.name} "
                f"is a branch target; deleting its site would strand the branch"
            )
    branches.sort()
    return FunctionSites(
        tuple(probes),
        tuple(position for _last, position in branches),
        tuple(last for last, _position in branches),
    )


class SiteIndex:
    """The :class:`FunctionSites` of every master function holding a site.

    Built from one pass over the master and read-only afterwards, like
    the master.  It is kept by whoever keeps the master (the engine,
    beside its masters), never on the object: objects are what the code
    caches pickle, and their bytes must not depend on whether a toggle
    ran.
    """

    __slots__ = ("functions",)

    def __init__(self, master: ObjectFile):
        self.functions: Dict[str, FunctionSites] = {}
        for name, mf in master.functions.items():
            sites = _function_sites(mf)
            if sites is not None:
                self.functions[name] = sites


def _shifted(inst: MachineInst, deleted: List[int]) -> MachineInst:
    """*inst* with every target moved down by the deleted positions before it.

    Built from a copy of the instance dict, not by ``dataclasses.replace``,
    which runs ``__init__`` over every field at twice the cost of the
    whole shift.  The copy keeps the dict's key order, so it pickles
    exactly as a replaced instance would.
    """
    fields = inst.__dict__.copy()
    fields["targets"] = tuple([t - bisect_left(deleted, t) for t in inst.targets])
    if inst.table:
        fields["table"] = tuple(
            [(v, t - bisect_left(deleted, t)) for v, t in inst.table]
        )
    shifted = object.__new__(MachineInst)
    shifted.__dict__ = fields
    return shifted


def toggle_function(
    mf: MachineFunction, disabled: FrozenSet[int], sites: FunctionSites
) -> MachineFunction:
    """Copy of *mf* with the sites of every probe id in *disabled* deleted.

    *sites* is *mf*'s :class:`FunctionSites`.  Returns *mf* itself when
    none of its sites is disabled.  Otherwise the copy holds the
    instructions between deleted sites, sliced out of *mf*; a branch is
    rebuilt only when a target lies past the first deleted site, and
    everything else (frame, registers, block names) is shared because
    probe instructions touch none of it.
    """
    deleted = [position for position, probe_id in sites.probes if probe_id in disabled]
    if not deleted:
        return mf
    insts = mf.insts
    kept: List[MachineInst] = []
    start = 0
    for position in deleted:
        kept += insts[start:position]
        start = position + 1
    kept += insts[start:]
    # No target equals a deleted position (SiteIndex checked), so the
    # branches whose last target is past the first deleted site are
    # exactly those with a target that moves.
    moving = bisect_right(sites.last_targets, deleted[0])
    for position in sites.branches[moving:]:
        kept[position - bisect_left(deleted, position)] = _shifted(
            insts[position], deleted
        )
    return dataclasses.replace(mf, insts=kept)


def toggle_object(
    master: ObjectFile,
    disabled: Iterable[int],
    index: Optional[SiteIndex] = None,
) -> ObjectFile:
    """Master object with the sites of *disabled* probe ids deleted.

    The master is the fragment compiled with **all** patchable sites in;
    this is the single choke point every rebuild tier uses to realize the
    current enable/disable state, which is what makes the tiers
    byte-equivalent.  Returns *master* itself when no listed site is
    present (nothing to delete, nothing to copy).  *index* is
    ``SiteIndex(master)``, kept by a caller that toggles one master
    repeatedly; without it, one is built for this call.

    Every function with a disabled site gets a fresh instance on every
    call, even when an earlier call produced an equal one: the image
    patch is priced per replaced function instance (``patch_image``).
    """
    disabled = frozenset(disabled)
    if not disabled:
        return master
    if index is None:
        index = SiteIndex(master)
    replaced = {}
    for name, sites in index.functions.items():
        mf = master.functions[name]
        toggled = toggle_function(mf, disabled, sites)
        if toggled is not mf:
            replaced[name] = toggled
    if not replaced:
        return master
    functions = {
        name: replaced.get(name, mf) for name, mf in master.functions.items()
    }
    return dataclasses.replace(master, functions=functions)
