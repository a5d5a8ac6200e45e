"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch failures from the whole toolchain with a single handler while still
being able to distinguish frontend errors from, say, linker errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class IRError(ReproError):
    """Malformed IR construction or manipulation."""


class IRTypeError(IRError):
    """An IR operation was applied to operands of the wrong type."""


class IRParseError(IRError):
    """The textual IR parser rejected its input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class VerifierError(IRError):
    """The IR verifier found a structural violation."""


class FrontendError(ReproError):
    """MiniC compilation failed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class BackendError(ReproError):
    """Instruction selection or register allocation failed."""


class LinkError(ReproError):
    """Symbol resolution or relocation failed."""


class VMError(ReproError):
    """The virtual machine trapped."""


class VMTrap(VMError):
    """The guest program aborted (e.g. a sanitizer probe fired)."""

    def __init__(self, message: str, kind: str = "abort"):
        self.kind = kind
        super().__init__(message)


class PartitionError(ReproError):
    """The partitioner produced or was given an inconsistent scheme."""


class ScheduleError(ReproError):
    """Probe scheduling failed (e.g. probe targets an unknown symbol)."""


class FuzzError(ReproError):
    """The fuzzing harness failed."""
