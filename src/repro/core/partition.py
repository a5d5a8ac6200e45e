"""Program partitioning (§3.2, Figure 6, Algorithm 1).

Before fuzzing starts, Odin surveys the target program and produces a
:class:`FragmentDefinition` that balances recompilation speed against
optimization quality:

1. **Classify symbols** — a trial optimization run logs requirements:
   ``bond`` pairs (dead-arg-elim / inlining need callee and caller
   together) and ``copy_on_use`` constants (local optimization needs the
   referenced constant's bytes).  Everything else is ``fixed``.
   Non-clonable ``copy_on_use`` candidates (non-const, or exported)
   degrade to bonds with their users, per the paper.

2. **Create fragments** (Algorithm 1) — union-find clusters: innate
   constraints (alias symbols must live with their aliasee) for
   correctness, bond pairs for optimization; remaining fixed symbols get
   singleton fragments.

3. **Add missing symbols** — done lazily at extraction time
   (:func:`repro.ir.clone.extract_module_ex` imports declarations and
   clones copy-on-use symbols recursively).

4. **Internalize** — a symbol referenced only inside its own fragment is
   internal there; anything referenced cross-fragment (or preserved,
   e.g. ``main``) is exported with a stable ABI.

Strategies: ``odin`` (the paper's scheme), ``one`` (Odin-OnePartition)
and ``max`` (Odin-MaxPartition) from Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import PartitionError
from repro.ir.clone import fragment_linkage
from repro.ir.module import Function, Module
from repro.ir.values import GlobalAlias, GlobalValue, GlobalVariable
from repro.opt.pass_manager import REQ_BOND, REQ_COPY_ON_USE, Requirement
from repro.opt.pipeline import trial_optimize
from repro.utils.unionfind import UnionFind

CLASS_BOND = "bond"
CLASS_COPY_ON_USE = "copy_on_use"
CLASS_FIXED = "fixed"

STRATEGY_ODIN = "odin"
STRATEGY_ONE = "one"
STRATEGY_MAX = "max"


@dataclass
class Fragment:
    """One recompilation unit: a set of symbols defined together."""

    id: int
    symbols: Tuple[str, ...]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols


@dataclass
class FragmentDefinition:
    """The partition scheme: "the boundary between fragments" (§3.1)."""

    strategy: str
    fragments: List[Fragment] = field(default_factory=list)
    copy_on_use: Set[str] = field(default_factory=set)
    classification: Dict[str, str] = field(default_factory=dict)
    # symbol -> owning fragment id (copy-on-use symbols have no owner).
    owner: Dict[str, int] = field(default_factory=dict)
    # symbols that must stay exported in their fragment.
    exported: Set[str] = field(default_factory=set)

    def fragment_of(self, symbol: str) -> Fragment:
        try:
            return self.fragments[self.owner[symbol]]
        except KeyError:
            raise PartitionError(f"symbol @{symbol} is not owned by any fragment") from None

    def fragments_containing(self, symbol: str) -> List[Fragment]:
        """All fragments that will *define* the symbol after extraction.

        A copy-on-use symbol is cloned into every fragment referencing it;
        owned symbols live in exactly one fragment.
        """
        if symbol in self.owner:
            return [self.fragments[self.owner[symbol]]]
        return [f for f in self.fragments if symbol in self._referenced_by(f)]

    # Cache of fragment -> referenced copy-on-use symbols, filled lazily by
    # the engine (needs the module); default to empty.
    _references: Dict[int, Set[str]] = None

    def _referenced_by(self, fragment: Fragment) -> Set[str]:
        if self._references is None:
            return set()
        return self._references.get(fragment.id, set())

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)


def partition(
    module: Module,
    strategy: str = STRATEGY_ODIN,
    preserve: Iterable[str] = ("main",),
    requirements: Optional[List[Requirement]] = None,
) -> FragmentDefinition:
    """Produce a fragment definition for *module*.

    *requirements* may be supplied (e.g. precomputed) — otherwise a trial
    optimization run collects them for the ``odin`` strategy.
    """
    preserve = set(preserve)
    definitions = [s for s in module.symbols.values() if not s.is_declaration()]
    names = [s.name for s in definitions]

    if strategy == STRATEGY_ONE:
        return _finalize(
            module, STRATEGY_ONE, [names] if names else [], set(), {}, preserve
        )

    if strategy == STRATEGY_MAX:
        clusters = _cluster(module, definitions, bonds=[])
        return _finalize(module, STRATEGY_MAX, clusters, set(), {}, preserve)

    if strategy != STRATEGY_ODIN:
        raise PartitionError(f"unknown partition strategy {strategy!r}")

    if requirements is None:
        requirements = trial_optimize(module)

    classification: Dict[str, str] = {name: CLASS_FIXED for name in names}
    bonds: List[Tuple[str, str]] = []
    copy_on_use: Set[str] = set()

    for req in requirements:
        if req.subject not in classification:
            continue  # requirement about a symbol synthesized during trial
        if req.kind == REQ_BOND:
            classification[req.subject] = CLASS_BOND
            if req.peer in classification:
                bonds.append((req.subject, req.peer))
        elif req.kind == REQ_COPY_ON_USE:
            symbol = module.get(req.subject)
            if _clonable(symbol):
                classification[req.subject] = CLASS_COPY_ON_USE
                copy_on_use.add(req.subject)
            else:
                # Semantically non-clonable: bond with its users (§3.2).
                classification[req.subject] = CLASS_BOND
                if req.peer in classification:
                    bonds.append((req.subject, req.peer))

    # Copy-on-use symbols are cloned at extraction; they own no fragment.
    clustered = [s for s in definitions if s.name not in copy_on_use]
    clusters = _cluster(module, clustered, bonds)
    return _finalize(module, STRATEGY_ODIN, clusters, copy_on_use, classification, preserve)


def _clonable(symbol: GlobalValue) -> bool:
    """A symbol may be cloned into fragments only if duplicating it cannot
    change program semantics: immutable data, not address-compared across
    fragments in any way we support (our IR has no global-address equality
    constants), and not exported."""
    return (
        isinstance(symbol, GlobalVariable)
        and symbol.is_const
        and symbol.is_internal
        and not symbol.is_declaration()
    )


def _cluster(
    module: Module,
    definitions: List[GlobalValue],
    bonds: List[Tuple[str, str]],
) -> List[List[str]]:
    """Algorithm 1: union-find over innate constraints and bonds."""
    uf = UnionFind(s.name for s in definitions)

    # Innate constraints: an alias must be defined with its aliasee (§2.3).
    for symbol in definitions:
        if isinstance(symbol, GlobalAlias):
            uf.union(symbol.name, symbol.aliasee.name)

    # Bonds: interprocedural optimization pairs.
    for subject, peer in bonds:
        uf.union(subject, peer)

    return uf.clusters()


def _finalize(
    module: Module,
    strategy: str,
    clusters: List[List[str]],
    copy_on_use: Set[str],
    classification: Dict[str, str],
    preserve: Set[str],
) -> FragmentDefinition:
    fragdef = FragmentDefinition(strategy=strategy)
    fragdef.copy_on_use = copy_on_use
    fragdef.classification = classification
    # Canonical fragment numbering: order clusters by their (sorted)
    # symbol names, not by symbol-table insertion order.  A module that
    # was printed and re-parsed (process workers, cluster failover
    # snapshots) groups symbols by kind, so insertion order is not
    # stable across a round-trip — fragment ids must not depend on it,
    # or a migrated engine's per-fragment fingerprints stop lining up
    # with a from-scratch build of the same program.
    for cluster in sorted(tuple(sorted(c)) for c in clusters):
        fragment = Fragment(len(fragdef.fragments), cluster)
        fragdef.fragments.append(fragment)
        for name in fragment.symbols:
            fragdef.owner[name] = fragment.id

    fragdef.exported = _exported_symbols(module, fragdef, preserve)
    fragdef._references = _copy_on_use_references(module, fragdef)
    return fragdef


def _exported_symbols(
    module: Module, fragdef: FragmentDefinition, preserve: Set[str]
) -> Set[str]:
    """Internalization (§3.2 step 4): a symbol stays exported iff it is
    preserved or referenced from a different fragment."""
    exported: Set[str] = set(p for p in preserve if p in module.symbols)
    for fn in module.defined_functions():
        from_frag = fragdef.owner.get(fn.name)
        for ref in fn.referenced_globals():
            if ref.is_declaration() and ref.name not in fragdef.owner:
                continue  # external import (libc etc.)
            if ref.name in fragdef.copy_on_use:
                continue  # cloned locally, never linked across
            to_frag = fragdef.owner.get(ref.name)
            if to_frag is None or to_frag != from_frag:
                exported.add(ref.name)
    for alias in module.aliases():
        if alias.is_declaration():
            continue
        from_frag = fragdef.owner.get(alias.name)
        to_frag = fragdef.owner.get(alias.aliasee.name)
        if to_frag is not None and to_frag != from_frag:
            exported.add(alias.aliasee.name)
    return exported


def _copy_on_use_references(
    module: Module, fragdef: FragmentDefinition
) -> Dict[int, Set[str]]:
    """fragment id -> copy-on-use symbols its members reference."""
    refs: Dict[int, Set[str]] = {}
    if not fragdef.copy_on_use:
        return refs
    for fn in module.defined_functions():
        frag = fragdef.owner.get(fn.name)
        if frag is None:
            continue
        for ref in fn.referenced_globals():
            if ref.name in fragdef.copy_on_use:
                refs.setdefault(frag, set()).add(ref.name)
    return refs


def apply_fragment_linkage(fragment_module: Module, fragdef: FragmentDefinition) -> None:
    """Set linkage inside an extracted fragment per the internalization
    decision (:func:`repro.ir.clone.fragment_linkage`): exported symbols
    become external (stable ABI), everything else defined here becomes
    internal (full IPO freedom)."""
    for symbol in fragment_module.symbols.values():
        if not symbol.is_declaration():
            symbol.linkage = fragment_linkage(symbol.name, fragdef.exported)
