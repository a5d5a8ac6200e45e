"""Pass memoization: skip re-optimization of already-seen fragment IR.

The tier-2 fast path.  A fragment compile's middle-end output is a pure
function of (canonical input IR, pass-pipeline identity), so the engine
can memoize the *optimized IR text* and, on a later compile of the same
input, skip straight to instruction selection: the entry's text is
re-parsed and lowered, charging only the backend share of the cost model.

Why this differs from the content-addressed object cache
(:mod:`repro.service.cache`): that cache keys on (IR + probe signature +
opt level + variant) and returns finished objects; the memo keys on
(IR + pipeline) only — so it also fires across *variant families* and
probe-signature dimensions whose instrumented IR happens to coincide,
and its hits still pay isel, keeping the three tiers' costs distinct
(patch < memo < full).

:class:`PassMemoCache` (an in-memory
:class:`~repro.service.cache.CodeCache` over :class:`MemoEntry`
payloads) lives in ``repro.service.cache`` so it can reuse the LRU and
size-budget machinery; this module only defines the key scheme and the
payload, keeping ``repro.opt`` free of service imports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

__all__ = ["MemoEntry", "memo_key", "pipeline_identity"]


@dataclass
class MemoEntry:
    """Optimized-IR snapshot for one (input IR, pipeline) pair.

    ``ir_text`` is the module printed *after* optimization but *before*
    lowering (lowering mutates the CFG via critical-edge splitting, so
    the snapshot must be taken first).  ``diagnostics`` carries the
    probe-integrity sanitizer findings of the original run, replayed on
    hits so sanitize builds see identical reports.
    """

    ir_text: str
    diagnostics: Tuple = ()


def pipeline_identity(opt_level: int, sanitize: bool = False) -> str:
    """Canonical description of the pass pipeline a compile will run.

    Part of the memo key: a memoized optimization is only replayable when
    the exact pass sequence (and fixpoint policy) matches.  Computed from
    the real pipeline objects so pipeline changes invalidate old entries
    automatically.
    """
    from repro.opt.pass_manager import MAX_FIXPOINT_ITERS
    from repro.opt.pipeline import o0_pipeline, o2_pipeline

    if opt_level == 0:
        pm, fixpoint = o0_pipeline(), 0
    else:
        pm, fixpoint = o2_pipeline(), MAX_FIXPOINT_ITERS
    names = ",".join(type(p).__name__ for p in pm.passes)
    return f"o{opt_level}:[{names}]:fixpoint={fixpoint}:sanitize={int(sanitize)}"


def memo_key(ir_text: str, opt_level: int, sanitize: bool = False) -> str:
    """Content address of one middle-end run over canonical *ir_text*."""
    h = hashlib.sha256()
    h.update(ir_text.encode())
    h.update(f"\n;; pipeline={pipeline_identity(opt_level, sanitize)}\n".encode())
    return h.hexdigest()
