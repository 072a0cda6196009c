"""Synthetic tasks with known supports.

Each task bundles a seeded sampler, a dense discretization of the true
support, a distance-to-support function and a bounding box.  The tasks
cover the situations a set estimator has to face: one-dimensional curves
in the plane (circle, segment, moons), unions of components (two
circles), a noisy manifold and a full-dimensional region (square).

For lower-dimensional supports the grid indicator thickens the set by
one grid step, because a measure-zero set hits no grid cells; Hausdorff
comparisons use the unthickened discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        """Sample n points with a caller-owned generator (for harnesses)."""
        check_number("n must be an integer >= 1", n, ok=lambda v: v >= 1, integral=True)
        return self._sampler(int(n), rng)


def _unit_circle(t):
    """Points at angles ``t`` on the unit circle."""
    return np.column_stack([np.cos(t), np.sin(t)])


def _upper(P):
    """The upper moon is the unit half-circle arc itself."""
    return P


def _lower(P):
    """The reflection (x, y) -> (1 - x, 0.5 - y) between the arc and the lower
    moon; its own inverse, so it maps points both ways."""
    return np.column_stack([1.0 - P[:, 0], 0.5 - P[:, 1]])


def _arc_distance(points, flip):
    """Distance to a moon: ``flip`` (:func:`_upper` or :func:`_lower`) maps
    the points into the frame of the unit half-circle arc (angles 0..pi)."""
    p = flip(points)
    r = np.hypot(p[:, 0], p[:, 1])
    on_arc = p[:, 1] >= 0.0
    radial = np.abs(r - 1.0)
    d_end = np.minimum(np.hypot(p[:, 0] - 1.0, p[:, 1]),
                       np.hypot(p[:, 0] + 1.0, p[:, 1]))
    return np.where(on_arc, radial, d_end)


def _circle_distance(P):
    return np.abs(np.hypot(P[:, 0], P[:, 1]) - 1.0)


def _circle_points(m, center=(0.0, 0.0)):
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.column_stack([center[0] + np.cos(t), center[1] + np.sin(t)])


def _half_arc_points(m, flip):
    return flip(_unit_circle(np.linspace(0.0, np.pi, m)))


def _make_circle():
    def sampler(n, rng):
        return _unit_circle(rng.uniform(0.0, 2.0 * np.pi, n))

    return SyntheticTask("circle", 2, ((-1.5, 1.5), (-1.5, 1.5)), True,
                         sampler, _circle_points, _circle_distance)


def _make_circle_noise():
    def sampler(n, rng):
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        r = 1.0 + 0.05 * rng.standard_normal(n)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])

    return SyntheticTask("circle_noise", 2, ((-1.5, 1.5), (-1.5, 1.5)), True,
                         sampler, _circle_points, _circle_distance)


def _make_segment():
    def sampler(n, rng):
        t = rng.uniform(0.0, 1.0, n)
        return np.column_stack([t, np.zeros(n)])

    def support(m):
        return np.column_stack([np.linspace(0.0, 1.0, m), np.zeros(m)])

    def distance(P):
        return np.hypot(P[:, 0] - np.clip(P[:, 0], 0.0, 1.0), P[:, 1])

    return SyntheticTask("segment", 2, ((-0.5, 1.5), (-1.0, 1.0)), True,
                         sampler, support, distance)


_MOON_BOX = ((-1.5, 2.5), (-1.0, 1.5))


def _make_two_moons():
    def sampler(n, rng):
        pick = rng.integers(0, 2, n).astype(bool)
        pts = np.empty((n, 2))
        # draw both streams from one generator to keep the mix exchangeable
        t = rng.uniform(0.0, np.pi, n)
        pts[pick] = _unit_circle(t[pick])
        pts[~pick] = _lower(_unit_circle(t[~pick]))
        return pts

    def support(m):
        half = m // 2
        return np.vstack([_half_arc_points(half, _upper),
                          _half_arc_points(m - half, _lower)])

    def distance(P):
        return np.minimum(_arc_distance(P, _upper), _arc_distance(P, _lower))

    return SyntheticTask("two_moons", 2, _MOON_BOX, True, sampler, support, distance)


def _make_moon(which):
    flip = _upper if which == "moon_upper" else _lower
    return SyntheticTask(
        which, 2, _MOON_BOX, True,
        lambda n, rng: flip(_unit_circle(rng.uniform(0.0, np.pi, n))),
        lambda m: _half_arc_points(m, flip), lambda P: _arc_distance(P, flip))


def _make_two_circles():
    centers = np.array([[-1.5, 0.0], [1.5, 0.0]])

    def sampler(n, rng):
        pick = rng.integers(0, 2, n)
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        return centers[pick] + _unit_circle(t)

    def support(m):
        half = m // 2
        return np.vstack([_circle_points(half, center=centers[0]),
                          _circle_points(m - half, center=centers[1])])

    def distance(P):
        d0 = np.abs(np.hypot(P[:, 0] - centers[0, 0], P[:, 1]) - 1.0)
        d1 = np.abs(np.hypot(P[:, 0] - centers[1, 0], P[:, 1]) - 1.0)
        return np.minimum(d0, d1)

    return SyntheticTask("two_circles", 2, ((-3.0, 3.0), (-1.5, 1.5)), True,
                         sampler, support, distance)


def _make_square():
    def sampler(n, rng):
        return rng.uniform(0.0, 1.0, (n, 2))

    def support(m):
        side = max(int(np.sqrt(m)), 2)
        g = np.linspace(0.0, 1.0, side)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def distance(P):
        ex = np.maximum(np.maximum(0.0 - P[:, 0], P[:, 0] - 1.0), 0.0)
        ey = np.maximum(np.maximum(0.0 - P[:, 1], P[:, 1] - 1.0), 0.0)
        return np.hypot(ex, ey)

    return SyntheticTask("cube", 2, ((-0.5, 1.5), (-0.5, 1.5)), False,
                         sampler, support, distance)


_TASKS = {t.name: t for t in [
    _make_circle(), _make_circle_noise(), _make_segment(), _make_two_moons(),
    _make_moon("moon_upper"), _make_moon("moon_lower"),
    _make_two_circles(), _make_square(),
]}


def task_names():
    return sorted(_TASKS)


def get_task(name):
    try:
        return _TASKS[name]
    except KeyError:
        raise UsageError(
            f"unknown task {name!r}; available: {', '.join(task_names())}") from None


def sample(task, n, seed):
    """Draw n points; identical seeds give bit-identical samples.  ``seed`` is
    ``None``, a nonnegative integer or a sequence of them."""
    check_seed(seed, sequence=True)
    return task.draw(n, np.random.default_rng(seed))


def reference_support(task, m=1000):
    """Dense discretization of the true support (unthickened)."""
    check_number("m must be an integer >= 2", m, ok=lambda v: v >= 2, integral=True)
    return task._support(int(m))


def support_distance(task, points):
    """Euclidean distance from each point to the true support set."""
    return task._distance(_as_points(points))


def reference_grid(task, resolution):
    """Regular grid over the bounding box plus the ground-truth indicator.

    Returns (points, inside, cell_volume).  The indicator thickens
    lower-dimensional supports by one grid step (the largest per-axis
    step); full-dimensional supports are exact.
    """
    check_number("resolution must be an integer >= 2", resolution, ok=lambda v: v >= 2,
                 integral=True)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in task.bounding_box]
    steps = [(hi - lo) / (resolution - 1) for lo, hi in task.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    thickness = max(steps) if task.lower_dimensional else 0.0
    inside = support_distance(task, points) <= thickness
    cell_volume = float(np.prod(steps))
    return points, inside, cell_volume
