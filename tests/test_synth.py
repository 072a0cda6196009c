import numpy as np
import numpy.testing as npt
import pytest

from setlearn import (UsageError, get_task, hausdorff, reference_grid,
                      reference_support, sample, support_distance, task_names)

NOISELESS = ["circle", "segment", "two_moons", "moon_upper", "moon_lower",
             "two_circles", "cube"]


def test_task_registry():
    names = task_names()
    for expected in NOISELESS + ["circle_noise"]:
        assert expected in names
    with pytest.raises(UsageError, match="circle"):
        get_task("no_such_task")


def test_circle_samples_on_unit_circle():
    pts = sample(get_task("circle"), 4, seed=0)
    assert pts.shape == (4, 2)
    npt.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-12)


def test_segment_second_coordinate_exactly_zero():
    pts = sample(get_task("segment"), 50, seed=1)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all((pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0))


def test_reproducibility_bit_for_bit():
    for name in ("circle", "two_moons", "circle_noise", "cube"):
        a = sample(get_task(name), 200, seed=7)
        b = sample(get_task(name), 200, seed=7)
        npt.assert_array_equal(a, b)
        c = sample(get_task(name), 200, seed=8)
        assert not np.array_equal(a, c)


def test_noise_task_tail_fraction():
    task = get_task("circle_noise")
    pts = sample(task, 20000, seed=3)
    d = support_distance(task, pts)
    assert (d <= 3 * 0.05).mean() >= 0.99


def test_noiseless_samples_lie_on_support():
    for name in NOISELESS:
        task = get_task(name)
        pts = sample(task, 500, seed=11)
        d = support_distance(task, pts)
        assert np.max(d) <= 1e-9, name


def test_samples_stay_inside_bounding_box():
    for name in NOISELESS + ["circle_noise"]:
        task = get_task(name)
        pts = sample(task, 2000, seed=13)
        for axis, (lo, hi) in enumerate(task.bounding_box):
            assert pts[:, axis].min() >= lo - 1e-9
            assert pts[:, axis].max() <= hi + 1e-9


def test_reference_support_on_support():
    for name in NOISELESS:
        task = get_task(name)
        ref = reference_support(task, 400)
        d = support_distance(task, ref)
        assert np.max(d) <= 1e-9, name


def test_moons_are_the_two_halves():
    up = sample(get_task("moon_upper"), 300, seed=17)
    lo = sample(get_task("moon_lower"), 300, seed=17)
    both = get_task("two_moons")
    assert np.max(support_distance(both, up)) <= 1e-9
    assert np.max(support_distance(both, lo)) <= 1e-9
    # the halves are far apart on their own ground truths
    assert np.median(support_distance(get_task("moon_lower"), up)) > 0.3
    assert np.median(support_distance(get_task("moon_upper"), lo)) > 0.3


def test_cube_grid_indicator_exact():
    task = get_task("cube")
    points, inside, cell_volume = reference_grid(task, 40)
    expected = np.all((points >= 0.0) & (points <= 1.0), axis=1)
    npt.assert_array_equal(inside, expected)
    assert cell_volume > 0.0
    assert not task.lower_dimensional


def test_circle_grid_thickening_rule():
    task = get_task("circle")
    points, inside, _ = reference_grid(task, 60)
    step = 3.0 / 59  # linspace over [-1.5, 1.5] with 60 points
    d = np.abs(np.hypot(points[:, 0], points[:, 1]) - 1.0)
    npt.assert_array_equal(inside, d <= step)


def test_circle_grid_count_scales_linearly():
    # a one-dimensional support thickened by one step covers a cell count
    # proportional to resolution
    task = get_task("circle")
    counts = {}
    for res in (40, 80, 160):
        _, inside, _ = reference_grid(task, res)
        counts[res] = int(inside.sum())
    assert 1.6 <= counts[80] / counts[40] <= 2.4
    assert 1.6 <= counts[160] / counts[80] <= 2.4


def test_reference_grid_rejects_tiny_resolution():
    with pytest.raises(UsageError):
        reference_grid(get_task("circle"), 1)


def test_sample_to_support_distance_shrinks_with_n():
    task = get_task("circle")
    ref = reference_support(task, 1000)
    sizes = [100, 500, 2500]
    medians = []
    for n in sizes:
        ds = [hausdorff(sample(task, n, seed=s), ref) for s in range(10)]
        medians.append(np.median(ds))
    assert medians[-1] < 0.1
    assert np.all(np.diff(medians) <= 0)


def test_sample_validates_n():
    with pytest.raises(UsageError):
        sample(get_task("circle"), 0, seed=0)


def _protocol_sample(name, n, rng):
    """A task's sample rebuilt from the generator calls of the draw protocol."""
    if name == "segment":
        return np.column_stack([rng.uniform(0.0, 1.0, n), np.zeros(n)])
    if name == "cube":
        return rng.uniform(0.0, 1.0, (n, 2))
    pick = rng.integers(0, 2, n) if name in ("two_moons", "two_circles") else None
    t = rng.uniform(0.0, np.pi if "moon" in name else 2.0 * np.pi, n)
    r = 1.0 + 0.05 * rng.standard_normal(n) if name == "circle_noise" else 1.0
    x, y = r * np.cos(t), r * np.sin(t)
    if name == "two_circles":   # part 0 the left circle, part 1 the right
        return np.column_stack([np.where(pick == 0, -1.5, 1.5) + x, y])
    # part 0 of two_moons is the lower moon, part 1 the upper
    lower = pick == 0 if name == "two_moons" else np.full(n, name == "moon_lower")
    return np.column_stack([np.where(lower, 1.0 - x, x), np.where(lower, 0.5 - y, y)])


@pytest.mark.parametrize("name", task_names())
def test_sample_follows_the_draw_protocol(name):
    """Each task's sample is its protocol's generator calls, in order, bit for
    bit; the benchmark inputs and the golden corpus depend on them."""
    for n in (1, 2, 7, 300):
        for seed in (0, 5, [3, 4]):
            expected = _protocol_sample(name, n, np.random.default_rng(seed))
            assert np.array_equal(sample(get_task(name), n, seed), expected), (n, seed)
