"""The Odin engine: partition -> build -> (patch -> schedule -> rebuild)*.

§3.1's four phases map to this module:

1. **Partition** — at construction, over the *unoptimized* whole-program
   IR (instrument-first is what guarantees correctness, §2.2).
2. **Schedule** — ``PatchManager.schedule()`` (Algorithm 2).
3. **Split** — ``Scheduler.rebuild()`` splits the instrumented temporary
   IR back into per-fragment modules, printed straight to their canonical
   IR text: the text is the content key's input and the compile
   boundary, so a machine-code-cache hit builds no fragment IR.
4. **Generate code** — each missed fragment's text is parsed, optimized
   with the full O2 pipeline *after* instrumentation, lowered to an
   object file, stored in the machine-code cache, and the whole cache is
   relinked.

The engine never mutates the original module: every rebuild works on
extracted clones, which is how instrumentation changes are reverted — the
paper's "functional approach" (§4).

Fragment compilation is factored into the pure, module-level
:func:`compile_fragment` so the recompilation service
(:mod:`repro.service`) can run it on worker pools; the engine accepts a
pluggable content-addressed *object cache* and a *fragment compiler* for
that path.  With the defaults (no cache, inline serial compiler)
behaviour and every reported number are identical to the original
single-threaded engine.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.backend.isel import lower_module
from repro.backend.machine import ObjectFile
from repro.backend.patching import SiteIndex, toggle_object
from repro.core.manager import PatchManager
from repro.core.partition import (
    Fragment,
    FragmentDefinition,
    STRATEGY_ODIN,
    partition,
)
from repro.errors import PartitionError
from repro.ir.clone import ExtractionPlan
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.linker.linker import Executable, link, patch_image
from repro.obs.tracer import (
    CAT_FRAGMENT,
    CAT_PASS,
    CAT_PHASE,
    CAT_REBUILD,
    Span,
    Tracer,
)
from repro.opt.pipeline import optimize
from repro.utils.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import FragmentState, Scheduler


# Rebuild tiers, cheapest path last.  Every fragment of a rebuild is
# tagged with how it was serviced; a report's overall tier is the most
# expensive tier any of its fragments took.
TIER_FULL = "full"    # optimize + isel (nothing reusable)
TIER_CACHE = "cache"  # finished object served from the content cache
TIER_PATCH = "patch"  # probe sites toggled in the cached master object
TIER_NOOP = "noop"    # probe-state diff was empty; nothing rebuilt

_TIER_RANK = (TIER_FULL, TIER_CACHE, TIER_PATCH, TIER_NOOP)


# -- pure fragment compilation ---------------------------------------------------


def compile_fragment(
    text: str, name: str, opt_level: int = 2, sanitize: bool = False
) -> ObjectFile:
    """Parse one fragment's canonical IR text, optimize it
    (post-instrumentation) and lower it.

    Pure, so it can run on any worker — the engine's inline path or a
    process-pool worker, which receives exactly the same text.  *text* is
    what :meth:`Odin._split_fragment` prints, so the object bytes are a
    function of the canonical IR alone: a module re-parsed from text
    carries no construction history (name uniquification counters of a
    large parent) that the optimizer's generated names could leak.
    *name* becomes ``ObjectFile.name`` and is part of the object's
    canonical bytes; the text does not carry it.

    ``sanitize`` runs the probe-integrity sanitizer between optimization
    passes (debug builds); its findings ride back on the object file as
    ``obj.sanitizer_diagnostics``.
    """
    from repro.backend.costmodel import compile_cost_ms, middle_end_cost_ms
    from repro.ir.parser import parse_module

    real_start = time.perf_counter()
    frag_module = parse_module(text, name)
    # The middle end pays for the *unoptimized* input it receives.
    pre_opt_cost = compile_cost_ms(frag_module)
    opt_model_ms = middle_end_cost_ms(frag_module)

    ctx = optimize(frag_module, opt_level, sanitize_each=sanitize)
    verify_module(frag_module)
    obj = lower_module(frag_module)
    verify_module(frag_module)  # lowering must not break the IR
    obj.compile_ms = pre_opt_cost
    # Observability: how this compile's simulated cost decomposes into
    # optimize (split across passes by charged work) and isel/regalloc.
    # Plain dict so the breakdown survives the process-pool pickle.
    obj.stage_breakdown = {
        "optimize_ms": opt_model_ms,
        "isel_ms": pre_opt_cost - opt_model_ms,
        "passes": _allocate_pass_ms(opt_model_ms, ctx.pass_timings),
        "real_ms": (time.perf_counter() - real_start) * 1000.0,
    }
    if sanitize:
        obj.sanitizer_diagnostics = list(ctx.diagnostics)
    return obj


def _allocate_pass_ms(opt_ms: float, timings) -> List[Tuple[str, float, float]]:
    """Split a fragment's simulated optimize cost across its passes.

    Each pass gets a share proportional to the work it charged; the last
    pass takes the exact residual so the shares always sum to *opt_ms*.
    Returns ``[(pass name, sim_ms, real_ms), ...]`` in execution order.
    """
    if not timings:
        return []
    total_work = sum(t.work for t in timings)
    out: List[Tuple[str, float, float]] = []
    allocated = 0.0
    for i, t in enumerate(timings):
        if i == len(timings) - 1:
            share = opt_ms - allocated
        elif total_work:
            share = opt_ms * (t.work / total_work)
        else:
            share = opt_ms / len(timings)
        # Never overshoot: keeps every share (including the final
        # residual) non-negative despite float rounding, while the shares
        # still sum to opt_ms exactly.
        share = min(share, opt_ms - allocated)
        allocated += share
        out.append((t.pass_name, share, t.real_ms))
    return out


def fragment_content_key(
    text: str, opt_level: int, probe_signature: str = "", variant: str = "",
) -> str:
    """Content address of one fragment compile: hash(IR + probes + opt + variant).

    *text* is the fragment's canonical IR text (:meth:`Odin._split_fragment`),
    so a code-cache hit never builds the fragment's IR.  That text
    already embeds applied probes (they are real calls in
    the instrumented fragment), but the probe signature is hashed too so
    logically distinct probe states can never collide even if a probe
    scheme emits no IR.

    ``variant`` is the engine's variant label (run-time partitioned
    sanitization keeps several instrumentation families of every fragment
    co-resident): it is hashed into the key so two families can share one
    content-addressed cache without ever serving each other's objects,
    even at moments when their instrumented IR happens to coincide.
    """
    h = hashlib.sha256()
    h.update(text.encode())
    h.update(
        f"\n;; probes={probe_signature} opt={opt_level} variant={variant}\n".encode()
    )
    return h.hexdigest()


def object_fingerprint(obj: ObjectFile) -> str:
    """Digest of an object's canonical bytes (timing metadata excluded).

    Two fragments with equal fingerprints link into identical code; the
    ``repro check`` oracle uses this to assert incremental rebuilds are
    byte-equivalent to from-scratch builds.
    """
    return hashlib.sha256(obj.canonical_bytes()).hexdigest()


def compile_makespan(costs: Iterable[float], workers: int) -> float:
    """Simulated wall-clock of compiling *costs* on *workers* lanes.

    Longest-processing-time greedy assignment — deterministic, and the
    schedule a work-stealing pool converges to.  With one worker this is
    exactly the serial sum, added in *input* order: float addition is
    not associative, so summing in LPT order could drift an ULP away
    from the serial engine's per-fragment clock (and from
    :func:`assign_lanes`'s serial prefix sums), breaking the exact
    span-tiling invariants the trace export asserts.
    """
    if workers <= 1:
        total = 0.0
        for cost in costs:
            total += cost
        return total
    loads = [0.0] * workers
    for cost in sorted(costs, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads) if loads else 0.0


def assign_lanes(
    costs: List[float], workers: int
) -> Tuple[List[int], List[float]]:
    """Lane index and lane-relative start offset for each compile cost.

    Replays exactly the LPT schedule :func:`compile_makespan` prices
    (same stable descending-cost order, same least-loaded placement, same
    float addition order), so the resulting per-fragment spans tile the
    compile stage without gaps and the busiest lane ends at the makespan.
    With one worker the fragments simply run back-to-back in input order,
    matching how the serial engine advances the clock.
    """
    lanes = [0] * len(costs)
    starts = [0.0] * len(costs)
    if workers <= 1:
        cursor = 0.0
        for i, cost in enumerate(costs):
            starts[i] = cursor
            cursor += cost
        return lanes, starts
    loads = [0.0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        lane = loads.index(min(loads))
        lanes[i] = lane
        starts[i] = loads[lane]
        loads[lane] += costs[i]
    return lanes, starts


@dataclass
class RebuildReport:
    """Timing and scope of one on-the-fly recompilation."""

    fragment_ids: List[int] = field(default_factory=list)
    fragment_compile_ms: Dict[int, float] = field(default_factory=dict)
    link_ms: float = 0.0
    probes_applied: int = 0
    cache_reused: int = 0
    # Content-addressed code-cache hits among the recompiled fragments
    # (their compile was skipped; they charge 0 ms).
    cache_hits: int = 0
    # Tier accounting: fragment id -> tier it was serviced at, plus
    # counts of the fast paths taken this rebuild.
    fragment_tiers: Dict[int, str] = field(default_factory=dict)
    # Probe families behind each fragment's rebuild: for compiled
    # fragments the families applied into the master, for patch-tier
    # fragments the families whose toggles drove the patch.
    fragment_families: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    # Fragments serviced by stage-1 probe patching (sites toggled in the
    # cached master object; no optimize, no isel).
    patched: int = 0
    # Compile lanes used; >1 only on the service's worker-pool path.
    workers: int = 1
    # Simulated wall-clock of the compile stage: equals total_compile_ms
    # for one worker, the parallel makespan for a pool.
    compile_wall_ms: float = 0.0
    # Probe-integrity findings from this rebuild's fragment compiles;
    # only filled when the engine runs with ``sanitize=True``.
    sanitizer_diagnostics: List = field(default_factory=list)
    # Observability: the rebuild's span tree (schedule -> extract ->
    # instrument -> compile(per-fragment, per-pass) -> link), with dual
    # simulated + real timestamps.  Stage spans sum to ``wall_ms``.
    trace: Optional[Span] = field(default=None, repr=False, compare=False)

    @property
    def total_compile_ms(self) -> float:
        return sum(self.fragment_compile_ms.values())

    @property
    def total_ms(self) -> float:
        return self.total_compile_ms + self.link_ms

    @property
    def wall_ms(self) -> float:
        """Elapsed (simulated) time of this rebuild under `workers` lanes."""
        return self.compile_wall_ms + self.link_ms

    @property
    def tier(self) -> str:
        """The most expensive tier any fragment of this rebuild took."""
        tiers = set(self.fragment_tiers.values())
        for tier in _TIER_RANK:
            if tier in tiers:
                return tier
        return TIER_NOOP


class InlineFragmentCompiler:
    """Default compiler: serial, in-process — the original engine path.

    Every compiler's ``compile_batch`` takes ``(name, text)`` pairs, one
    per fragment, and returns their objects in batch order.
    """

    workers = 1

    def __init__(self, sanitize: bool = False):
        self.sanitize = sanitize

    def compile_batch(
        self, fragments: List[Tuple[str, str]], opt_level: int
    ) -> List[ObjectFile]:
        return [
            compile_fragment(text, name, opt_level, self.sanitize)
            for name, text in fragments
        ]


class Odin:
    """On-demand instrumentation engine over one target program."""

    def __init__(
        self,
        module: Module,
        *,
        strategy: str = STRATEGY_ODIN,
        preserve: Iterable[str] = ("main",),
        opt_level: int = 2,
        object_cache=None,
        compiler=None,
        sanitize: bool = False,
        tracer: Optional[Tracer] = None,
        variant_label: str = "",
        enable_patching: bool = True,
    ):
        verify_module(module)
        self.module = module          # original, unoptimized whole-program IR
        self.opt_level = opt_level
        # Debug builds: run the probe-integrity sanitizer inside every
        # fragment compile; findings accumulate on the engine and on each
        # RebuildReport.  (A custom `compiler` must opt in itself.)
        self.sanitize = sanitize
        self.sanitizer_diagnostics: List = []
        self.preserve = tuple(preserve)
        self.fragdef: FragmentDefinition = partition(module, strategy, preserve)
        self.manager = PatchManager(self)
        self.cache: Dict[int, ObjectFile] = {}
        # Pluggable service-path collaborators.  `object_cache` is any
        # mapping-like with get(key)/put(key, obj) (see repro.service.cache),
        # `compiler` anything with compile_batch(...) and a `workers` count.
        self.object_cache = object_cache
        self.compiler = compiler or InlineFragmentCompiler(sanitize=sanitize)
        # Variant family this engine compiles (run-time partitioned
        # sanitization, e.g. "clean"/"coverage"/"sanitized").  The label
        # is a dimension of the fragment content keys, so co-resident
        # families sharing one object cache never alias each other's
        # objects.
        self.variant_label = variant_label
        # Stage-1 patching state.  Sites-always-compiled: `_masters`
        # holds each fragment's object with *every* patchable probe site
        # compiled in; `cache` holds the toggle of that master matching
        # the current enable/disable state; `_built` the `FragmentState`
        # the linked objects were built for, which the scheduler's
        # `classify` compares with the live probes (committed only once a
        # rebuild has linked); `_site_indexes` the master's `SiteIndex`,
        # built on its first toggle that disables anything (kept here, not
        # on the object, which the code caches pickle).
        self.enable_patching = enable_patching
        self._masters: Dict[int, ObjectFile] = {}
        self._site_indexes: Dict[int, SiteIndex] = {}
        self._built: Dict[int, "FragmentState"] = {}
        self.executable: Optional[Executable] = None
        self.clock = SimClock()
        # The latest rebuild reports, oldest first (at most the tracer's
        # `max_roots`: each report holds its span tree).
        self.history: List[RebuildReport] = []
        # Observability: every rebuild records its span tree here.  A
        # service passes one shared tracer to all of its targets so
        # rebuild trees nest under the dispatch spans.
        self.tracer = tracer if tracer is not None else Tracer()

    # -- builds -----------------------------------------------------------------

    def initial_build(self) -> RebuildReport:
        """Compile every fragment (with current probes) and link."""
        self.manager.mark_symbols_dirty(self.fragdef.owner.keys())
        return self.rebuild()

    def rebuild(self) -> RebuildReport:
        """Schedule, apply the scheduled probes, and rebuild."""
        scheduler = self.manager.schedule()
        scheduler.apply_probes()
        return scheduler.rebuild()

    def rebuild_if_needed(self) -> Optional[RebuildReport]:
        """Rebuild only when probe state changed since the last build.

        A pending diff that cancelled out (probe added then removed, or
        toggled back to the state it was built for) schedules no
        fragment, so the rebuild answers with a zero-cost no-op report.
        """
        if not self.manager.has_pending_changes:
            return None
        return self.rebuild()

    # -- internals ------------------------------------------------------------------

    def _rebuild_from(self, scheduler: "Scheduler") -> RebuildReport:
        """Split the instrumented temporary IR, compile fragments, relink.

        Every fragment is serviced at one of the tiers: stage-1 *patch*
        (toggle probe sites in the cached master), content-cache *hit* or
        *full* compile.  One unified cost vector — patch cost, 0 for
        cache hits, the compile cost for the rest — prices the makespan,
        the lane replay in the span tree, and the serial clock, so
        fast-path fragments can never skew ``compile_wall_ms``.  Once linked, a schedule that
        services no fragment is every entry point's one no-op answer: a
        zero-cost report whose span tree has no stages, the executable
        kept.
        """
        from repro.backend.costmodel import probe_patch_cost_ms

        report = RebuildReport(probes_applied=len(scheduler.active_probes))
        report.workers = self.compiler.workers
        sim0 = self.clock.now_ms
        if self.executable is not None and not (
            scheduler.patched_fragments or scheduler.changed_fragments
        ):
            # Every dirty fragment was skipped, or none was dirty.
            report.trace = self._rebuild_span(report, sim0, real_ms=0.0)
            self._record(report)
            return report
        temp = scheduler.temp_module
        rebuild_real_start = time.perf_counter()

        # Tier "patch": flip sites in cached masters — no extract, no
        # optimize, no isel.  `entries` accumulates one
        # [fragment, cost, tier, object] row per serviced fragment.  The
        # toggles enter `cache` only once the compile batch succeeded, so
        # a rebuild that raises leaves every fragment at its linked
        # toggle, the state `classify` compares against.
        patch_real_start = time.perf_counter()
        entries: List[list] = []
        toggles: Dict[int, ObjectFile] = {}
        for fragment in scheduler.patched_fragments:
            toggles[fragment.id] = self._toggle(
                fragment.id, scheduler.states[fragment.id].disabled
            )
            cost = probe_patch_cost_ms(scheduler.patch_touched[fragment.id])
            report.fragment_families[fragment.id] = tuple(
                sorted(scheduler.patch_families[fragment.id])
            )
            entries.append([fragment, cost, TIER_PATCH, self._masters[fragment.id]])
        patch_real_ms = (time.perf_counter() - patch_real_start) * 1000.0

        # Split every changed fragment up front and probe the content
        # cache; the remaining misses form one batch for the compiler
        # (which may fan it out across workers).  Compiled objects are
        # *masters*: every patchable site is in (sites-always-compiled),
        # and the current enable state is realized by toggling below.
        split_real_ms = 0.0
        pending = []  # [fragment, text, content_key, master|None]
        for fragment in scheduler.changed_fragments:
            split_start = time.perf_counter()
            text = self._split_fragment(temp, fragment)
            split_real_ms += (time.perf_counter() - split_start) * 1000.0
            key = master = None
            if self.object_cache is not None:
                key = fragment_content_key(
                    text,
                    self.opt_level,
                    self._probe_signature(scheduler.applied_on[fragment.id]),
                    self.variant_label,
                )
                master = self.object_cache.get(key)
            pending.append([fragment, text, key, master])

        misses = [entry for entry in pending if entry[3] is None]
        compile_real_start = time.perf_counter()
        if misses:
            compiled = self.compiler.compile_batch(
                [(self._fragment_name(entry[0]), entry[1]) for entry in misses],
                self.opt_level,
            )
            for entry, obj in zip(misses, compiled):
                entry[3] = obj
                report.sanitizer_diagnostics.extend(
                    getattr(obj, "sanitizer_diagnostics", ())
                )
                if self.object_cache is not None:
                    self.object_cache.put(entry[2], obj)
            self.sanitizer_diagnostics.extend(report.sanitizer_diagnostics)
        compile_real_ms = (time.perf_counter() - compile_real_start) * 1000.0

        self.cache.update(toggles)
        miss_ids = {id(entry) for entry in misses}
        for entry in pending:
            fragment, _text, _key, master = entry
            if self._masters.get(fragment.id) is not master:
                self._masters[fragment.id] = master
                self._site_indexes.pop(fragment.id, None)
            self.cache[fragment.id] = self._toggle(
                fragment.id, scheduler.states[fragment.id].disabled
            )
            if id(entry) in miss_ids:
                tier = TIER_FULL
                cost = master.compile_ms
            else:
                # Content-cache hit: no compilation happened, charge 0.
                tier = TIER_CACHE
                cost = 0.0
                report.cache_hits += 1
            entries.append([fragment, cost, tier, master])

        # Unified accounting over the one cost vector.
        for fragment, cost, tier, _obj in entries:
            report.fragment_ids.append(fragment.id)
            report.fragment_compile_ms[fragment.id] = cost
            report.fragment_tiers[fragment.id] = tier
            if fragment.id not in report.fragment_families:
                report.fragment_families[fragment.id] = tuple(sorted({
                    p.family for p in scheduler.applied_on[fragment.id] if p.family
                }))
            if tier == TIER_PATCH:
                report.patched += 1
            if report.workers == 1:
                # Original serial behaviour: the clock moves per
                # fragment, in schedule order (zero-cost tiers move it
                # by nothing).
                self.clock.advance(cost, "compile")

        report.compile_wall_ms = compile_makespan(
            [cost for _f, cost, _t, _o in entries], report.workers
        )
        if report.workers > 1:
            # A pool's elapsed time is its makespan, not the lane sum.
            self.clock.advance(report.compile_wall_ms, "compile")

        report.cache_reused = len(self.fragdef.fragments) - len(report.fragment_ids)
        if len(self.cache) != len(self.fragdef.fragments):
            missing = [
                f.id for f in self.fragdef.fragments if f.id not in self.cache
            ]
            raise PartitionError(
                f"cannot link: fragments {missing} were never compiled "
                f"(run initial_build first)"
            )

        link_real_start = time.perf_counter()
        self._link(report, patch_only=all(
            tier == TIER_PATCH for _f, _c, tier, _o in entries
        ))
        link_real_ms = (time.perf_counter() - link_real_start) * 1000.0
        self._built.update(scheduler.states)

        report.trace = self._build_rebuild_trace(
            scheduler, report, entries, sim0,
            split_real_ms=split_real_ms,
            patch_real_ms=patch_real_ms,
            compile_real_ms=compile_real_ms,
            link_real_ms=link_real_ms,
            rebuild_real_ms=(time.perf_counter() - rebuild_real_start) * 1000.0,
        )
        self._record(report)
        return report

    def _record(self, report: RebuildReport) -> None:
        """Record *report*'s span tree and keep it in ``history``, which,
        like the tracer's roots, holds only the latest ``max_roots``."""
        self.tracer.record(report.trace)
        self.history.append(report)
        overflow = len(self.history) - self.tracer.max_roots
        if overflow > 0:
            del self.history[:overflow]

    def _toggle(self, fragment_id: int, disabled: frozenset) -> ObjectFile:
        """The fragment's master with the sites of *disabled* deleted."""
        master = self._masters[fragment_id]
        index = None
        if disabled:
            index = self._site_indexes.get(fragment_id)
            if index is None:
                index = self._site_indexes[fragment_id] = SiteIndex(master)
        return toggle_object(master, disabled, index)

    def _rebuild_span(
        self, report: RebuildReport, sim0: float, *, real_ms: float
    ) -> Span:
        """The root span of *report*'s tree, without its stages."""
        return Span(
            "rebuild",
            cat=CAT_REBUILD,
            sim_start_ms=sim0,
            sim_ms=report.wall_ms,
            real_ms=real_ms,
            args={
                "target": self.module.name,
                "workers": report.workers,
                "fragments": len(report.fragment_ids),
                "probes_applied": report.probes_applied,
                "tier": report.tier,
            },
        )

    def _build_rebuild_trace(
        self,
        scheduler: "Scheduler",
        report: RebuildReport,
        entries: List[list],
        sim0: float,
        *,
        split_real_ms: float,
        patch_real_ms: float,
        compile_real_ms: float,
        link_real_ms: float,
        rebuild_real_ms: float,
    ) -> Span:
        """Assemble the rebuild's span tree from the deterministic model.

        Simulated positions are synthetic but exact: fragment spans tile
        their LPT lanes inside the compile stage, optimize + isel tile
        each fragment, and per-pass spans tile optimize — so every layer
        sums to the one above it and the stage layer sums to
        ``report.wall_ms``.  Real durations are what this process
        actually measured for the same work.

        The lane replay runs over the *same* unified cost vector that
        priced the makespan — patched fragments at their patch cost,
        cache hits at zero — so fast-path spans interleave with full
        compiles without breaking the tiling invariants.  Every fragment
        span (and the root) carries its ``tier``.
        """
        root = self._rebuild_span(report, sim0, real_ms=rebuild_real_ms)
        root.add(Span(
            "schedule",
            sim_start_ms=sim0,
            real_ms=scheduler.schedule_real_ms,
            args={
                "changed_fragments": len(scheduler.changed_fragments),
                "patched_fragments": len(scheduler.patched_fragments),
            },
        ))
        root.add(Span(
            "extract",
            sim_start_ms=sim0,
            real_ms=scheduler.extract_real_ms + split_real_ms,
        ))
        root.add(Span(
            "instrument",
            sim_start_ms=sim0,
            real_ms=scheduler.instrument_real_ms,
            args={"active_probes": len(scheduler.active_probes)},
        ))
        compile_span = root.add(Span(
            "compile",
            sim_start_ms=sim0,
            sim_ms=report.compile_wall_ms,
            real_ms=patch_real_ms + compile_real_ms,
            args={
                "workers": report.workers,
                "cache_hits": report.cache_hits,
                "patched": report.patched,
                "compiled": len(report.fragment_ids)
                - report.cache_hits
                - report.patched,
            },
        ))

        lanes, starts = assign_lanes(
            [cost for _f, cost, _t, _o in entries], report.workers
        )
        for (fragment, cost, tier, obj), lane, lane_offset in zip(
            entries, lanes, starts
        ):
            frag_start = sim0 + lane_offset
            if tier == TIER_CACHE:
                compile_span.add(Span(
                    f"fragment#{fragment.id}",
                    cat=CAT_FRAGMENT,
                    sim_start_ms=frag_start,
                    lane=lane,
                    args={"cache_hit": True, "tier": tier},
                ))
                continue
            if tier == TIER_PATCH:
                compile_span.add(Span(
                    f"fragment#{fragment.id}",
                    cat=CAT_FRAGMENT,
                    sim_start_ms=frag_start,
                    sim_ms=cost,
                    lane=lane,
                    args={
                        "tier": tier,
                        "sites_touched": scheduler.patch_touched[fragment.id],
                    },
                ))
                continue
            breakdown = getattr(obj, "stage_breakdown", None)
            frag_span = compile_span.add(Span(
                f"fragment#{fragment.id}",
                cat=CAT_FRAGMENT,
                sim_start_ms=frag_start,
                sim_ms=cost,
                real_ms=breakdown["real_ms"] if breakdown else 0.0,
                lane=lane,
                args={"symbols": len(fragment.symbols), "tier": tier},
            ))
            if breakdown is None:
                continue  # custom compiler without stage attribution
            opt_span = frag_span.add(Span(
                "optimize",
                cat=CAT_PHASE,
                sim_start_ms=frag_start,
                sim_ms=breakdown["optimize_ms"],
                lane=lane,
            ))
            cursor = frag_start
            for pass_name, pass_sim_ms, pass_real_ms in breakdown["passes"]:
                opt_span.add(Span(
                    pass_name,
                    cat=CAT_PASS,
                    sim_start_ms=cursor,
                    sim_ms=pass_sim_ms,
                    real_ms=pass_real_ms,
                    lane=lane,
                ))
                cursor += pass_sim_ms
            frag_span.add(Span(
                "isel",
                cat=CAT_PHASE,
                sim_start_ms=frag_start + breakdown["optimize_ms"],
                sim_ms=breakdown["isel_ms"],
                lane=lane,
            ))

        root.add(Span(
            "link",
            sim_start_ms=sim0 + report.compile_wall_ms,
            sim_ms=report.link_ms,
            real_ms=link_real_ms,
        ))
        return root

    def _link(self, report: RebuildReport, *, patch_only: bool = False) -> None:
        """Produce the executable: patch the image, or relink.

        A rebuild serviced entirely at the patch tier splices the toggled
        objects into the existing image
        (:func:`repro.linker.linker.patch_image`) instead of paying the
        full link; everything else relinks from the per-fragment cache.
        """
        if patch_only and self.executable is not None:
            patched_objects = {
                self.cache[fid].name: self.cache[fid]
                for fid, tier in report.fragment_tiers.items()
                if tier == TIER_PATCH
            }
            self.executable = patch_image(self.executable, patched_objects)
        else:
            self.executable = link(
                [self.cache[f.id] for f in self.fragdef.fragments]
            )
        report.link_ms = self.executable.link_ms
        self.clock.advance(report.link_ms, "link")

    @staticmethod
    def _probe_signature(applied) -> str:
        """Canonical description of the probe state compiled into a fragment.

        Signs the fragment's *applied* probes — active ones plus disabled
        patchable ones — because that is what the master object
        physically carries (sites-always-compiled); the enable/disable
        state is realized by toggling the master, not signed here.
        """
        return ",".join(sorted(
            f"{p.family or '-'}/{type(p).__name__}#{p.id}" for p in applied
        ))

    def _split_fragment(self, temp: Module, fragment: Fragment) -> str:
        """One fragment's (instrumented) canonical IR text, printed
        straight from the temp IR.

        Equal to ``print_module`` of the fragment extracted from *temp*
        (``extract_module`` then ``apply_fragment_linkage``), without
        building that module.
        """
        return ExtractionPlan(
            temp,
            fragment.symbols,
            self.fragdef.copy_on_use,
            exported=self.fragdef.exported,
        ).text()

    def _fragment_name(self, fragment: Fragment) -> str:
        """The module (and object) name of *fragment*'s compile."""
        return f"{self.module.name}.frag{fragment.id}"

    # -- static analysis ------------------------------------------------------------

    def lint(self, checks: Optional[Iterable[str]] = None) -> List:
        """Run the IR lint suite over the original whole-program module.

        Returns :class:`repro.analysis.diagnostics.Diagnostic` records;
        pair with ``sanitize=True`` builds for the full static layer.
        """
        from repro.analysis.lints import run_lints

        return run_lints(self.module, checks)

    # -- equivalence hooks (repro check) ----------------------------------------------

    def object_fingerprints(self) -> Dict[int, str]:
        """Canonical digest of every currently linked fragment object."""
        return {fid: object_fingerprint(obj) for fid, obj in self.cache.items()}

    def executable_fingerprint(self) -> Optional[str]:
        """Canonical digest of the current executable (None before build)."""
        return None if self.executable is None else self.executable.fingerprint()

    # -- introspection ------------------------------------------------------------------

    @property
    def num_fragments(self) -> int:
        return self.fragdef.num_fragments

    def describe_partition(self) -> str:
        """Human-readable partition summary (Figure 6 style)."""
        lines = [f"strategy={self.fragdef.strategy} fragments={self.num_fragments}"]
        for fragment in self.fragdef.fragments:
            syms = ", ".join(fragment.symbols)
            lines.append(f"  #{fragment.id}: {syms}")
        if self.fragdef.copy_on_use:
            lines.append(f"  copy-on-use: {', '.join(sorted(self.fragdef.copy_on_use))}")
        exported = sorted(self.fragdef.exported)
        lines.append(f"  exported: {', '.join(exported) if exported else '(none)'}")
        return "\n".join(lines)
