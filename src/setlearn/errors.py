"""Error types shared across the package, and the checks every argument takes.

The command line maps these onto exit codes, so library code should prefer
them over bare ValueError/RuntimeError wherever the failure is contractual.
It also maps ``MemoryError`` (an array too large to allocate) to exit code 4.

Every public number, count and array argument is checked by one of the
two checks below.  A number is a ``numbers.Real`` (Python's or numpy's) and
a count a ``numbers.Integral``.  A bool counts as neither, and nor does a
string, ``None``, a complex number or an array; a float count such as 2.5
or 2.0 is refused, never truncated.  Each call site states its own range.
A wrong value is a ``UsageError`` reading "<what> must <condition>, got
<value!r>".  An array holds integers or floats, and for data (points,
scores, indicators) also bools.  Any other array (text, ``None``, complex
numbers, a ragged nesting) is a ``DataError`` for data and a
``UsageError`` for an argument such as a filter's or a Gram matrix.  A
random seed is a count too (:func:`check_seed`).  A file path is a ``str``,
``bytes`` or ``os.PathLike`` (:func:`check_path`), never an integer, which
``open`` would take as a file descriptor.  A flag is a ``bool``, Python's or
numpy's (:func:`check_flag`), never another value read for its truth.
"""

import numbers
import os

import numpy as np


class UsageError(ValueError):
    """Bad arguments or option combinations (exit code 2)."""


class DataError(ValueError):
    """Malformed or degenerate input data (exit code 3)."""


class NumericError(RuntimeError):
    """Numerical failure, e.g. a factorization or eigensolver breakdown (exit code 4)."""


def check_number(what, *values, ok=None, integral=False):
    """Refuse ``values`` unless each is a real number, an integer if
    ``integral``, not a bool, for which ``ok(value)`` holds: a ``UsageError``
    reading "<what>, got <values>", each value shown by its repr."""
    kind = numbers.Integral if integral else numbers.Real
    for v in values:
        if isinstance(v, bool) or not isinstance(v, kind) or not (ok is None or ok(v)):
            raise UsageError(f"{what}, got {', '.join(map(repr, values))}")


def real_array(what, x, data=False, finite=False):
    """``x`` as an array of real numbers, not copied if it is one, and finite if
    ``finite``; else the error ``what``, a ``DataError`` for ``data`` (which may
    also be bools) and a ``UsageError`` otherwise."""
    try:
        a = np.asarray(x)
    except ValueError:   # a ragged sequence
        a = None
    if (a is None or a.dtype.kind not in ("biuf" if data else "iuf")
            or finite and not np.all(np.isfinite(a))):
        raise (DataError if data else UsageError)(what)
    return a


def check_seed(seed, sequence=False):
    """Refuse ``seed`` unless it is a nonnegative integer, not a bool, or, if
    ``sequence``, ``None`` or a list, tuple or 1-d array of such integers, as
    ``numpy.random.default_rng`` takes one: a ``UsageError``."""
    if sequence and seed is None:
        return
    many = sequence and (isinstance(seed, (list, tuple))
                         or isinstance(seed, np.ndarray) and seed.ndim == 1)
    check_number("seed must be None, a nonnegative integer or a sequence of them" if sequence
                 else "seed must be a nonnegative integer",
                 *(seed if many else (seed,)), ok=lambda v: v >= 0, integral=True)


def check_flag(what, value):
    """Refuse ``value`` unless it is a ``bool`` or a ``numpy.bool_``: a
    ``UsageError`` reading "<what> must be a bool, got <value!r>".  An array,
    whose truth is ambiguous, or a string, which is always true, is refused."""
    if not isinstance(value, (bool, np.bool_)):
        raise UsageError(f"{what} must be a bool, got {value!r}")


def check_path(path):
    """Refuse ``path`` unless it is a ``str``, ``bytes`` or ``os.PathLike``: a
    ``UsageError``.  An integer or a bool, which ``open`` takes as a file
    descriptor, is refused too."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise UsageError(f"a file path must be a str, bytes or os.PathLike, got {path!r}")
