"""Exception types shared across the package.

Each class carries the process exit code the CLI maps it to, so library
errors translate to stable script-visible codes without string matching.
"""


class GapforgeError(Exception):
    exit_code = 1


class GateFileError(GapforgeError):
    """Unreadable, malformed, or non-unitary gate-set files."""

    exit_code = 1


class DomainError(GapforgeError):
    """Arguments outside the mathematical domain of an operation."""

    exit_code = 2


class ResourceLimitError(GapforgeError):
    """Computation would exceed a configured cap (irrep dimension, word count)."""

    exit_code = 3
