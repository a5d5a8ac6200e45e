"""Structured diagnostics for the static-analysis layer.

Sanitizer and lint findings are *reports*, not failures: a distorted probe
must surface with enough context to attribute it (which check, which pass,
which function/block/probe) without aborting the build the way
:class:`repro.errors.VerifierError` does.  Callers decide severity policy
— the CLI's lint gate, for example, fails on errors and prints warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_NOTE = "note"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_NOTE)


@dataclass(frozen=True)
class Diagnostic:
    """One finding from the sanitizer or the lint suite."""

    severity: str          # error / warning / note
    check: str             # kebab-case check slug, e.g. "probe-erased"
    message: str
    function: Optional[str] = None
    block: Optional[str] = None
    pass_name: Optional[str] = None   # optimization pass that caused it
    probe_id: Optional[int] = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown diagnostic severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR

    def location(self) -> str:
        """``@fn:block`` / ``@fn`` / ``<module>`` — wherever it points."""
        if self.function is None:
            return "<module>"
        if self.block is None:
            return f"@{self.function}"
        return f"@{self.function}:{self.block}"

    def __str__(self) -> str:
        parts = [f"{self.severity}[{self.check}]"]
        if self.pass_name is not None:
            parts.append(f"after pass {self.pass_name!r}")
        parts.append(f"{self.location()}:")
        parts.append(self.message)
        if self.probe_id is not None:
            parts.append(f"(probe #{self.probe_id})")
        return " ".join(parts)


def errors_of(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diagnostics if d.is_error]
