"""repro.core — the Odin on-demand instrumentation framework.

This package is the paper's primary contribution:

* :class:`Probe` / :class:`PatchManager` — dynamic probe lifecycle (§4)
* :func:`partition` — trial-guided program partitioning (§3.2, Alg. 1)
* :class:`Scheduler` — recompilation scheduling (§3.3, Alg. 2)
* :class:`Odin` — the engine tying it together with the machine-code cache
"""

from repro.core.engine import Odin, RebuildReport
from repro.core.manager import PatchManager
from repro.core.partition import (
    CLASS_BOND,
    CLASS_COPY_ON_USE,
    CLASS_FIXED,
    Fragment,
    FragmentDefinition,
    STRATEGY_MAX,
    STRATEGY_ODIN,
    STRATEGY_ONE,
    apply_fragment_linkage,
    partition,
)
from repro.core.probe import BlockProbe, InstructionProbe, Probe
from repro.core.scheduler import Scheduler
from repro.core.variants import ALL_VARIANTS, VARIANT_LABELS

__all__ = [
    "Odin", "RebuildReport", "PatchManager", "Scheduler",
    "Probe", "BlockProbe", "InstructionProbe",
    "Fragment", "FragmentDefinition", "partition", "apply_fragment_linkage",
    "CLASS_BOND", "CLASS_COPY_ON_USE", "CLASS_FIXED",
    "STRATEGY_ODIN", "STRATEGY_ONE", "STRATEGY_MAX",
    "ALL_VARIANTS", "VARIANT_LABELS",
]
