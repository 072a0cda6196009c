"""Error types shared across the package.

The command line maps these onto exit codes, so library code should prefer
them over bare ValueError/RuntimeError wherever the failure is contractual.
It also maps ``MemoryError`` (an array too large to allocate) to exit code 4.
"""


class UsageError(ValueError):
    """Bad arguments or option combinations (exit code 2)."""


class DataError(ValueError):
    """Malformed or degenerate input data (exit code 3)."""


class NumericError(RuntimeError):
    """Numerical failure, e.g. a factorization or eigensolver breakdown (exit code 4)."""
