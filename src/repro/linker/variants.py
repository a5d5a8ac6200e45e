"""Multi-variant executable images: one link, N sanitization families.

Run-time partitioned sanitization (PartiSan, Lettner et al.) keeps
several *variants* of every function co-resident — here a ``clean``
build, a ``coverage`` build and a fully ``sanitized`` build of the same
fragments — and picks among them at run time through a per-function
dispatch table.  Odin's linker makes this cheap: each family is an
ordinary per-fragment link, and :func:`link_variants` merges the family
images into one :class:`VariantExecutable`:

* the **default family's** image provides the data segment, exported
  entry points and symbol addresses — by construction every family
  compiles the *same* fragment modules (instrumentation adds code, never
  data), which :func:`link_variants` verifies byte-for-byte;
* every family's functions are appended to one shared function table,
  with their resolution maps re-based so intra-family direct calls stay
  within the family;
* a **dispatch table** maps ``function name -> family -> merged index``.
  The VM routes every call through it (see ``VM(variant_selector=...)``),
  so the executing variant of each function is a per-execution or
  per-call runtime decision, not a link-time one.

Function addresses (``lea`` + indirect calls) use the merged index
space, so a function pointer taken inside one family still dispatches to
the selected family when called — the dispatch table is keyed by name,
and every variant index of a function resolves to the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.backend.costmodel import link_cost_ms
from repro.errors import LinkError
from repro.linker.linker import Executable, LinkedFunction, Resolution


@dataclass
class VariantExecutable(Executable):
    """A linked image holding every sanitization family of the program.

    Behaves exactly like an :class:`Executable` whose function table
    happens to contain each function once per family; the extra state is
    the dispatch metadata the VM's variant selector routes through.
    """

    # Family names in merge order; families[0] is the default the entry
    # points resolve to when no selector is installed.
    families: List[str] = field(default_factory=list)
    # Per merged-function-index: which family the function belongs to.
    family_of: List[str] = field(default_factory=list)
    # function name -> family -> merged function index.
    variant_index: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def default_family(self) -> str:
        return self.families[0] if self.families else ""

    def dispatch(self, index: int, family: str) -> int:
        """Merged index of *family*'s variant of the function at *index*.

        Unknown families, and functions the requested family does not
        define (optimization can erase a helper from one family but not
        another), fall back to the index as-is — the call stays in the
        family that owns the targeted slot.
        """
        variants = self.variant_index.get(self.functions[index].name)
        if variants is None:
            return index
        return variants.get(family, index)

    def canonical_bytes(self) -> bytes:
        parts = [super().canonical_bytes().decode()]
        parts.append("variant-families " + ",".join(self.families))
        for name in sorted(self.variant_index):
            entry = self.variant_index[name]
            parts.append(
                f"variant {name} "
                + " ".join(f"{fam}:{entry[fam]}" for fam in sorted(entry))
            )
        return "\n".join(parts).encode()


def link_variants(
    family_images: Mapping[str, Executable], default: Optional[str] = None
) -> VariantExecutable:
    """Merge per-family linked images into one multi-variant image.

    *family_images* maps family label -> that family's ordinary link of
    the program's fragments (iteration order is preserved).  *default*
    names the family that backs the exported entry points; it defaults to
    the first family.  Every family must carry an identical data segment
    (instrumentation adds code, never data) — verified here because a
    violation would mean variants are *not* behaviour-interchangeable.

    Function *sets* may differ between families: per-fragment
    optimization can inline a helper out of existence in the clean build
    while probes keep it alive in an instrumented one.  Each family's
    functions are appended wholesale; a name missing from the selected
    family simply falls back to the caller's current family at dispatch
    time (``VariantExecutable.dispatch``), which is sound because any
    call to it originates inside a family that does define it.
    """
    if not family_images:
        raise LinkError("link_variants needs at least one family image")
    order = list(family_images)
    if default is None:
        default = order[0]
    if default not in family_images:
        raise LinkError(f"default family {default!r} has no image")
    order.remove(default)
    order.insert(0, default)

    base = family_images[default]
    exe = VariantExecutable(
        entry_points=dict(base.entry_points),
        data_image=base.data_image,
        data_base=base.data_base,
        symbol_addresses=dict(base.symbol_addresses),
        const_ranges=list(base.const_ranges),
        families=order,
    )

    for family in order:
        image = family_images[family]
        if image.data_image != base.data_image or (
            image.data_base != base.data_base
        ):
            raise LinkError(
                f"variant family {family!r} has a different data segment "
                f"than {default!r}; instrumentation must not touch data"
            )
        offset = len(exe.functions)
        remapped: Dict[int, Dict[str, Resolution]] = {}
        for lf in image.functions:
            resolution = remapped.get(id(lf.resolution))
            if resolution is None:
                resolution = _rebase_resolution(lf.resolution, offset)
                remapped[id(lf.resolution)] = resolution
            index = len(exe.functions)
            exe.functions.append(
                LinkedFunction(lf.mf, f"{lf.object_name}#{family}", resolution)
            )
            exe.family_of.append(family)
            exe.variant_index.setdefault(lf.name, {})[family] = index

    # Building the dispatch table is the only work beyond the family
    # links (which were each priced normally); charge it like a link
    # over the dispatch entries.
    exe.link_ms = link_cost_ms(len(exe.functions) - len(base.functions), 0)
    return exe


def _rebase_resolution(
    resolution: Dict[str, Resolution], offset: int
) -> Dict[str, Resolution]:
    """Shift a family-local resolution map into the merged index space.

    Only ``("func", index)`` entries move; data addresses and builtins
    are family-independent.  Intra-family calls therefore resolve to the
    same family's functions — the dispatch table (not static resolution)
    is what lets execution cross families.
    """
    if offset == 0:
        return dict(resolution)
    return {
        sym: (("func", value + offset) if kind == "func" else (kind, value))
        for sym, (kind, value) in resolution.items()
    }
