"""Synthetic tasks with known supports.

Each task bundles a seeded sampler, a dense discretization of the true
support, a distance-to-support function and a bounding box.  The tasks
cover the situations a set estimator has to face: one-dimensional curves
in the plane (circle, segment, moons), unions of components (two
circles), a noisy manifold and a full-dimensional region (square).

One builder, ``_arc``, declares the six tasks that are the unit circle or
its upper half arc placed by one or two parts, each a (map, inverse) pair.
A union's support lists its parts in order, m // 2 points each and the rest
on the last; its distance is the least over its parts, each in its frame.
A second, ``_box``, declares ``segment`` and ``cube``: the unit interval on
the first axis and the unit square, with a grid support and the distance to
the clipped point.  Draw protocol: a box task draws ``uniform(0, 1, (n, k))``
for its k axes (``segment``'s are the draws of ``uniform(0, 1, n)``); an arc
task draws, in this order, its parts with ``integers(0, 2, n)`` if a union
(``two_moons``: 0 lower, 1 upper moon; ``two_circles``: 0 left, 1 right), its
angles with ``uniform(0, span, n)`` and, for ``circle_noise``, its radius
noise with ``standard_normal(n)``.

For lower-dimensional supports the grid indicator thickens the set by
one grid step, because a measure-zero set hits no grid cells; Hausdorff
comparisons use the unthickened discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import UsageError, check_number, check_seed
from .kernels import _as_points

__all__ = ["SyntheticTask", "task_names", "get_task", "sample",
           "reference_support", "reference_grid", "support_distance"]


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """A sampler with ground truth attached."""

    name: str
    dim: int
    bounding_box: tuple         # ((lo, hi), ...) per axis
    lower_dimensional: bool
    _sampler: object
    _support: object
    _distance: object

    def draw(self, n, rng):
        """Sample n points with a caller-owned ``numpy.random.Generator``."""
        check_number("n must be an integer >= 1", n, ok=lambda v: v >= 1, integral=True)
        if not isinstance(rng, np.random.Generator):
            raise UsageError(f"rng must be a numpy.random.Generator, got {rng!r}")
        return self._sampler(int(n), rng)


def _unit_circle(t):
    """Points at angles ``t`` on the unit circle."""
    return np.column_stack([np.cos(t), np.sin(t)])


def _lower(P):
    """The reflection (x, y) -> (1 - x, 0.5 - y) between the arc and the lower
    moon; its own inverse, so it maps points both ways."""
    return np.column_stack([1.0 - P[:, 0], 0.5 - P[:, 1]])


def _shift(x):
    c = np.array([x, 0.0])
    return lambda P: P + c, lambda P: P - c


_SAME = (lambda P: P,) * 2


def _arc(name, box, span, parts, noise=0.0):
    """The unit circle's arc over angles [0, span] (closed at 2 pi), placed by
    each (map, inverse) of ``parts``, its radius scaled by 1 + noise * N(0, 1)."""
    closed = span == 2.0 * np.pi

    def sampler(n, rng):
        pick = rng.integers(0, 2, n) if len(parts) > 1 else None
        P = _unit_circle(rng.uniform(0.0, span, n))
        if noise:
            P *= (1.0 + noise * rng.standard_normal(n))[:, None]
        if pick is None:
            return parts[0][0](P)
        for k, (place, _) in enumerate(parts):
            P[pick == k] = place(P[pick == k])
        return P

    def support(m):
        counts = [m // 2, m - m // 2] if len(parts) == 2 else [m]
        return np.vstack([place(_unit_circle(np.linspace(0.0, span, c, endpoint=not closed)))
                          for (place, _), c in zip(parts, counts)])

    def arc_distance(p):
        d = np.abs(np.hypot(p[:, 0], p[:, 1]) - 1.0)
        if closed:
            return d
        ends = np.minimum(np.hypot(p[:, 0] - 1.0, p[:, 1]), np.hypot(p[:, 0] + 1.0, p[:, 1]))
        return np.where(p[:, 1] >= 0.0, d, ends)   # below the arc, an end is nearest

    def distance(P):
        return reduce(np.minimum, (arc_distance(inverse(P)) for _, inverse in parts))

    return SyntheticTask(name, 2, box, True, sampler, support, distance)


def _box(name, box, k):
    """The unit interval on the first axis (k = 1) or the unit square (k = 2)."""
    top = np.array([1.0, float(k == 2)])   # the box's far corner

    def sampler(n, rng):
        P = np.zeros((n, 2))
        P[:, :k] = rng.uniform(0.0, 1.0, (n, k))
        return P

    def support(m):
        side = np.linspace(0.0, 1.0, m if k == 1 else max(int(np.sqrt(m)), 2))
        grid = np.meshgrid(*[side] * k, *[[0.0]] * (2 - k), indexing="ij")
        return np.column_stack([axis.ravel() for axis in grid])

    def distance(P):
        return np.hypot(*(P - np.clip(P, 0.0, top)).T)

    return SyntheticTask(name, 2, box, k == 1, sampler, support, distance)


_CIRCLE_BOX = ((-1.5, 1.5), (-1.5, 1.5))
_MOON_BOX = ((-1.5, 2.5), (-1.0, 1.5))
_TASKS = {t.name: t for t in [
    _arc("circle", _CIRCLE_BOX, 2.0 * np.pi, [_SAME]),
    _arc("circle_noise", _CIRCLE_BOX, 2.0 * np.pi, [_SAME], noise=0.05),
    _box("segment", ((-0.5, 1.5), (-1.0, 1.0)), 1),
    _arc("two_moons", _MOON_BOX, np.pi, [(_lower, _lower), _SAME]),
    _arc("moon_upper", _MOON_BOX, np.pi, [_SAME]),
    _arc("moon_lower", _MOON_BOX, np.pi, [(_lower, _lower)]),
    _arc("two_circles", ((-3.0, 3.0), (-1.5, 1.5)), 2.0 * np.pi, [_shift(-1.5), _shift(1.5)]),
    _box("cube", ((-0.5, 1.5), (-0.5, 1.5)), 2),
]}


def task_names():
    return sorted(_TASKS)


def get_task(name):
    if not isinstance(name, str) or name not in _TASKS:
        raise UsageError(f"unknown task {name!r}; available: {', '.join(task_names())}")
    return _TASKS[name]


def _task(task):
    """``task`` if it is a synthetic task; anything else is a usage error."""
    if not isinstance(task, SyntheticTask):
        raise UsageError(f"task must be a synthetic task, got {task!r}")
    return task


def sample(task, n, seed):
    """Draw n points; identical seeds give bit-identical samples.  ``seed`` is
    ``None``, a nonnegative integer or a sequence of them."""
    check_seed(seed, sequence=True)
    return _task(task).draw(n, np.random.default_rng(seed))


def reference_support(task, m=1000):
    """Dense discretization of the true support (unthickened)."""
    check_number("m must be an integer >= 2", m, ok=lambda v: v >= 2, integral=True)
    return _task(task)._support(int(m))


def support_distance(task, points):
    """Euclidean distance from each point to the true support set."""
    return _task(task)._distance(_as_points(points))


def reference_grid(task, resolution):
    """Regular grid over the bounding box plus the ground-truth indicator.

    Returns (points, inside, cell_volume).  The indicator thickens
    lower-dimensional supports by one grid step (the largest per-axis
    step); full-dimensional supports are exact.
    """
    check_number("resolution must be an integer >= 2", resolution, ok=lambda v: v >= 2,
                 integral=True)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in _task(task).bounding_box]
    steps = [(hi - lo) / (resolution - 1) for lo, hi in task.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    thickness = max(steps) if task.lower_dimensional else 0.0
    inside = support_distance(task, points) <= thickness
    cell_volume = float(np.prod(steps))
    return points, inside, cell_volume
