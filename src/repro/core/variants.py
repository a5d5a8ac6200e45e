"""Partition-scheme variants (Table 1).

=================== =============== ======================
Variant             Code fragments  Feature
=================== =============== ======================
Odin (original)     trial-guided    balanced
Odin-OnePartition   1               better optimization
Odin-MaxPartition   max possible    faster recompilation
=================== =============== ======================

An engine takes its variant as ``Odin(strategy=...)``.
"""

from __future__ import annotations

from repro.core.partition import STRATEGY_MAX, STRATEGY_ODIN, STRATEGY_ONE

#: The variants in the column order of Figures 10-12.
ALL_VARIANTS = (STRATEGY_ONE, STRATEGY_ODIN, STRATEGY_MAX)

VARIANT_LABELS = {
    STRATEGY_ODIN: "Odin",
    STRATEGY_ONE: "Odin-OnePartition",
    STRATEGY_MAX: "Odin-MaxPartition",
}
