"""Build every variant family once and merge them into one image.

One :class:`~repro.core.engine.Odin` engine per family, all sharing:

* one object cache — the ``variant_label`` dimension in the content
  keys keeps co-resident families from ever aliasing each other's
  objects (see :mod:`repro.service.cache`);
* one :class:`~repro.obs.tracer.Tracer` — every family's rebuild trees
  and the builder's own spans land in a single timeline, which is how a
  de-instrumentation recompile stays observable inside the span tree.

Each fragment is compiled once per family through the normal engine path
(content cache probed first), then :func:`~repro.linker.variants.
link_variants` merges the per-family images into a
:class:`~repro.linker.variants.VariantExecutable` with a per-function
dispatch table.  After any family's probe state changes (the budget
controller removing a hot function's probes), :meth:`VariantBuilder.
deinstrument_symbol` recompiles just the dirty fragments and relinks the
merged image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.engine import Odin, RebuildReport
from repro.instrument.base import SanitizerTool
from repro.linker.variants import VariantExecutable, link_variants
from repro.obs.tracer import Tracer
from repro.service.cache import InMemoryCodeCache
from repro.variants.spec import VariantFamily, VariantSpec, default_spec
from repro.vm.interpreter import VM, CompositeProbeRuntime, ProbeRuntime

#: The partitioned-sanitization subsystem's span category.
CAT_PARTISAN = "partisan"


@dataclass
class FamilyBuild:
    """One family's engine, tools and build outcome."""

    family: VariantFamily
    engine: Odin
    tools: List[SanitizerTool]
    probes: int
    build_report: RebuildReport

    @property
    def name(self) -> str:
        return self.family.name


class VariantBuilder:
    """Compiles a :class:`VariantSpec` into one multi-variant image."""

    def __init__(
        self,
        module_factory: Callable[[], "object"],
        *,
        spec: Optional[VariantSpec] = None,
        preserve=("main",),
        opt_level: int = 2,
        trap: bool = False,
        object_cache=None,
        tracer: Optional[Tracer] = None,
    ):
        self.spec = spec if spec is not None else default_spec()
        self.module_factory = module_factory
        self.preserve = tuple(preserve)
        self.opt_level = opt_level
        self.trap = trap
        # Shared across every family engine; the variant label keeps
        # entries disjoint per family.
        self.object_cache = (
            object_cache if object_cache is not None else InMemoryCodeCache()
        )
        self.tracer = tracer if tracer is not None else Tracer()
        self.builds: Dict[str, FamilyBuild] = {}
        self.executable: Optional[VariantExecutable] = None
        self.relinks = 0
        self.deinstrumented: List[str] = []

    # -- builds -----------------------------------------------------------------

    def build(self) -> VariantExecutable:
        """Compile every family and link the merged image."""
        with self.tracer.span("partisan.build", cat=CAT_PARTISAN):
            for family in self.spec.families:
                with self.tracer.span(
                    f"partisan.family.{family.name}",
                    cat=CAT_PARTISAN,
                    family=family.name,
                ):
                    module = self.module_factory()
                    engine = Odin(
                        module,
                        preserve=self.preserve,
                        opt_level=self.opt_level,
                        object_cache=self.object_cache,
                        tracer=self.tracer,
                        variant_label=family.name,
                    )
                    tools = family.install(engine, trap=self.trap)
                    report = engine.initial_build()
                    self.builds[family.name] = FamilyBuild(
                        family=family,
                        engine=engine,
                        tools=tools,
                        probes=sum(len(t.probes) for t in tools),
                        build_report=report,
                    )
            return self.relink()

    def relink(self) -> VariantExecutable:
        """Re-merge the families' current executables."""
        if not self.builds:
            raise RuntimeError("build() the families before relinking")
        images = {name: fb.engine.executable for name, fb in self.builds.items()}
        self.executable = link_variants(images, default=self.spec.default)
        self.relinks += 1
        return self.executable

    # -- lookup -----------------------------------------------------------------

    @property
    def family_names(self) -> List[str]:
        return list(self.builds)

    def build_for(self, family: str) -> FamilyBuild:
        return self.builds[family]

    def probe_counts(self) -> Dict[str, int]:
        """Live (enabled, registered) probe count per family."""
        return {name: fb.probes for name, fb in self.builds.items()}

    # -- execution --------------------------------------------------------------

    def probe_runtime(
        self, extra_runtime: Optional[ProbeRuntime] = None
    ) -> Optional[ProbeRuntime]:
        """Every family's probe runtimes fanned into one composite."""
        runtimes: List[ProbeRuntime] = [
            tool.runtime for fb in self.builds.values() for tool in fb.tools
        ]
        if extra_runtime is not None:
            runtimes.append(extra_runtime)
        if not runtimes:
            return None
        if len(runtimes) == 1:
            return runtimes[0]
        return CompositeProbeRuntime(*runtimes)

    def make_vm(
        self,
        *,
        selector=None,
        dispatch_tax: int = 0,
        extra_runtime: Optional[ProbeRuntime] = None,
        **kwargs,
    ) -> VM:
        """VM over the merged image with all families' runtimes installed."""
        if self.executable is None:
            raise RuntimeError("build() before make_vm()")
        return VM(
            self.executable,
            probe_runtime=self.probe_runtime(extra_runtime),
            variant_selector=selector,
            dispatch_tax=dispatch_tax,
            **kwargs,
        )

    # -- de-instrumentation -----------------------------------------------------

    def deinstrument_symbol(self, symbol: str) -> Dict[str, int]:
        """Unregister every probe targeting *symbol* across all families,
        recompile the dirty fragments on the fly, and relink the merged
        image.  Returns probes removed per family (empty if the symbol
        carried none).

        Removing, not disabling, is what takes the probes' sites out: a
        disable of patchable probes takes the patch tier, which keeps
        the sites compiled in and their cost as optimization barriers.

        The whole operation runs inside a ``partisan.deinstrument`` span,
        so each family's fragment-level rebuild tree nests under it —
        the observable proof that a hot function really was recompiled
        without its checks.
        """
        removed: Dict[str, int] = {}
        with self.tracer.span(
            "partisan.deinstrument", cat=CAT_PARTISAN, symbol=symbol
        ):
            for name, fb in self.builds.items():
                count = 0
                for tool in fb.tools:
                    for probe in tool.probes.for_symbol(symbol):
                        tool.probes.discard(probe.id)
                        count += 1
                if count:
                    fb.engine.rebuild_if_needed()
                    removed[name] = count
            if removed:
                self.relink()
                self.deinstrumented.append(symbol)
        return removed
