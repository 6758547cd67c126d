"""Tests for the grid machinery: penalties, convolutions, the jump operator,
doubling maximization, the coupling inequality, and the linear experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from levyot.measures import DiscreteMeasure
from levyot.suites import random_grid_function
from levyot.viscosity import (
    EquationSpec,
    GridFunction,
    PenalizationSpec,
    basic_idea_experiment,
    coupling_inequality_check,
    doubling_maximize,
    inf_convolution,
    levy_op_eval,
    pointwise_power_constant,
    psi_kappa,
    psi_kappa_grad,
    sup_convolution,
    _assemble_periodic_operator,
    _window_width,
)
from levyot.transport import distance


def test_penalization_spec_validation():
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.0, kappa=0.5, p=2.0)
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.1, kappa=1.0, p=2.0)
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.1, kappa=0.5, p=0.5)
    for eps in (math.inf, math.nan, 1e-320):  # 1/1e-320 overflows
        with pytest.raises(ValueError, match="epsilon"):
            PenalizationSpec(epsilon=eps, kappa=0.5, p=2.0)


def test_psi_kappa_values_and_gradient():
    spec = PenalizationSpec(epsilon=0.1, kappa=1e-3, p=1.5)
    assert psi_kappa([0.0, 0.0], spec) == 0.0
    assert np.allclose(psi_kappa_grad([0.0, 0.0], spec), 0.0)
    # p = 2 is exact regardless of kappa
    for kappa in (1e-6, 0.5):
        s2 = PenalizationSpec(epsilon=0.1, kappa=kappa, p=2.0)
        x = np.array([0.3, -0.4])
        assert psi_kappa(x, s2) == pytest.approx(0.25, abs=1e-15)


def test_psi_kappa_gradient_norm_bound(rng):
    for _ in range(200):
        p = float(rng.uniform(1.0, 2.0))
        kappa = float(rng.uniform(1e-6, 0.99))
        x = rng.normal(size=3)
        spec = PenalizationSpec(epsilon=1.0, kappa=kappa, p=p)
        g = np.linalg.norm(psi_kappa_grad(x, spec))
        assert g <= p * np.linalg.norm(x) ** (p - 1.0) + 1e-12


def test_psi_kappa_uniform_approximation(rng):
    for p in (1.0, 1.5, 2.0):
        for kappa in (1e-6, 1e-3, 0.5):
            spec = PenalizationSpec(epsilon=1.0, kappa=kappa, p=p)
            assert abs(psi_kappa([0.0], spec)) <= 1e-12
            for _ in range(50):
                x = rng.normal(size=2) * 2.0
                diff = abs(psi_kappa(x, spec) - np.linalg.norm(x) ** p)
                assert diff <= kappa ** (p / 2.0) + 1e-12


def test_pointwise_power_constant_is_kappa_uniform():
    # record the sampled constants; they bound the quotient for fresh samples
    rng = np.random.default_rng(8)
    for p in (1.0, 1.5, 2.0):
        cp = pointwise_power_constant(p)
        assert math.isfinite(cp) and cp > 0
        for _ in range(100):
            kappa = float(rng.choice([1e-6, 1e-3, 0.5]))
            a = float(rng.uniform(-1.8, 1.8))
            h = float(rng.uniform(-1.8, 1.8))
            if abs(h) < 1e-6 or abs(a + h) > 2 or abs(a) > 2:
                continue
            base = (kappa + a * a) ** (p / 2.0)
            grad = p * a * (kappa + a * a) ** (p / 2.0 - 1.0)
            quot = abs((kappa + (a + h) ** 2) ** (p / 2.0) - base - grad * h) / abs(h) ** p
            assert quot <= cp + 1e-9


def test_grid_function_interpolation_and_extension():
    g = GridFunction(np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0, 4.0]))
    assert g(np.array([0.25])) == pytest.approx(0.5)
    assert g(np.array([2.0])) == pytest.approx(4.0)  # constant continuation
    assert g(np.array([-3.0])) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0]), np.array([0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="NaN"):
        g(np.array([math.nan]))


@st.composite
def _grids_and_points(draw):
    """A grid function in d in 1..3 with 2 to 7 nodes per axis, values up to
    1e300 in size, and 60 query points in the box widened by half its extent
    on each side.  Sizes and scales are drawn; the numbers come from a drawn
    seed, which keeps examples cheap."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(2, 7), min_size=dim, max_size=dim)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-100.0, 100.0, dim)
    hi = lo + 10.0 ** rng.uniform(-3, 2, dim)
    g = GridFunction(lo, hi, rng.uniform(-1.0, 1.0, shape) * scale)
    points = lo + (hi - lo) * rng.uniform(-0.5, 1.5, (60, dim))
    return g, points


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_grids_and_points())
def test_property_grid_function_is_multilinear_interpolation(case):
    from scipy.interpolate import RegularGridInterpolator

    g, points = case
    # exact at the nodes
    assert g(g.nodes()).tobytes() == g.values.reshape(-1).tobytes()
    # outside the box, the value at the nearest point of the box
    inside = np.clip(points, g.lo, g.hi)
    got = g(points)
    assert got.tobytes() == g(inside).tobytes()
    # within 4 ulps of max |v| of SciPy's linear interpolation elsewhere
    want = RegularGridInterpolator(g.axes(), g.values, method="linear")(inside)
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(g.sup_norm())


@pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
def test_convolutions_reject_bad_delta(delta):
    g = GridFunction(np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0, 4.0]))
    for op in (sup_convolution, inf_convolution):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            op(g, delta)


def test_sup_convolution_constant_is_fixed_point():
    g = GridFunction(np.array([0.0]), np.array([1.0]), np.full(8, 3.25))
    for delta in (1e-2, 1e-1):
        assert np.allclose(sup_convolution(g, delta).values, 3.25)
        assert np.allclose(inf_convolution(g, delta).values, 3.25)


def test_sup_convolution_properties(rng, make_grid_function):
    for dim, n_nodes in ((1, 256), (2, 48)):
        u = make_grid_function(rng, dim, n_nodes)
        small = sup_convolution(u, 1e-3)
        mid = sup_convolution(u, 1e-2)
        big = sup_convolution(u, 1e-1)
        # (1) monotone in delta, norms controlled
        assert np.all(small.values <= mid.values + 1e-14)
        assert np.all(mid.values <= big.values + 1e-14)
        assert big.sup_norm() <= u.sup_norm() + 1e-14
        # (2) one-sided approximations
        assert np.all(small.values >= u.values - 1e-14)
        assert np.all(inf_convolution(u, 1e-2).values <= u.values + 1e-14)
        # (3) uniform convergence, monotone along the delta ladder
        gaps = [np.max(np.abs(c.values - u.values)) for c in (big, mid, small)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        # (4) semiconvexity in every axis direction
        delta = 1e-2
        h = mid.spacing
        for ax in range(dim):
            second = np.diff(mid.values, n=2, axis=ax) / h[ax] ** 2
            assert np.all(second >= -2.0 / delta - 1e-8)
        # (5) achieving nodes stay inside the energy radius
        conv, ach = sup_convolution(u, delta, with_achievers=True)
        nodes = u.nodes()
        dist = np.linalg.norm(nodes - nodes[ach], axis=1)
        assert np.all(dist <= math.sqrt(2.0 * delta * u.sup_norm()) + 1e-12)


def _dense_sup_convolution(u, delta, achievers):
    """The dense scan as an oracle: every node x against every node y.

    Returns max_y u(y) - |x - y|^2 / delta per node x, and the candidate
    value at the given achiever of each x, computed in row blocks.
    """
    nodes = u.nodes()
    vals = u.values.reshape(-1)
    best = np.empty(vals.size)
    at = np.empty(vals.size)
    for start in range(0, vals.size, 512):
        rows = slice(start, start + 512)
        cand = vals[None, :] - cdist(nodes[rows], nodes, "sqeuclidean") / delta
        best[rows] = cand.max(axis=1)
        at[rows] = cand[np.arange(cand.shape[0]), achievers[rows]]
    return best, at


def _reference_grid(case):
    rng = np.random.default_rng(1805)
    if case == "2d-30x17-box":
        return GridFunction(np.array([-0.4, 0.3]), np.array([1.1, 0.8]), rng.normal(size=(30, 17)))
    dim, n_nodes = {"1d-512": (1, 512), "2d-64x64": (2, 64), "3d-16^3": (3, 16)}[case]
    return random_grid_function(rng, dim, n_nodes)


def _meshgrid_random_grid_function(rng, dim, n_nodes, box):
    """random_grid_function's values with every mode evaluated on the full
    meshgrid, kept as the reference for the per-axis evaluation."""
    mesh = np.meshgrid(*[np.linspace(-box, box, n_nodes)] * dim, indexing="ij")
    vals = np.zeros_like(mesh[0])
    for k in range(1, 6):
        coef = rng.normal() / k
        phase = rng.uniform(0, 2 * math.pi, size=dim)
        wave = np.ones_like(vals)
        for ax in range(dim):
            wave = wave * np.cos(k * math.pi * mesh[ax] / box + phase[ax])
        vals += coef * wave
    return vals / np.max(np.abs(vals))


def test_random_grid_function_matches_the_meshgrid_formula():
    for seed in range(10):
        for dim, n_nodes in ((1, 2), (1, 512), (2, 7), (2, 48), (3, 16), (4, 5)):
            for box in (1.0, 2.0, 0.3):
                got = random_grid_function(np.random.default_rng(seed), dim, n_nodes, box=box)
                want = _meshgrid_random_grid_function(np.random.default_rng(seed), dim, n_nodes, box)
                assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("case", ["1d-512", "2d-64x64", "2d-30x17-box", "3d-16^3"])
def test_convolutions_match_dense_scan(case, delta):
    u = _reference_grid(case)
    conv, ach = sup_convolution(u, delta, with_achievers=True)
    assert conv.values.shape == u.values.shape and ach.shape == (u.values.size,)
    best, at = _dense_sup_convolution(u, delta, ach)
    assert np.max(np.abs(conv.values.reshape(-1) - best)) <= 1e-13
    assert np.max(np.abs(at - best)) <= 1e-13
    # inf-convolution: the dense min of u(y) + |x - y|^2 / delta
    neg_best, _ = _dense_sup_convolution(u.with_values(-u.values), delta, ach)
    assert np.max(np.abs(inf_convolution(u, delta).values.reshape(-1) + neg_best)) <= 1e-13


def _dense_doubling(u, v, spec):
    """The dense scan as an oracle: every node pair, in cdist chunks of 1 << 22 pairs.

    Returns (value, index); ties resolve to the lexicographically smallest pair.
    """
    nx, ny = u.nodes(), v.nodes()
    uu, vv = u.values.reshape(-1), v.values.reshape(-1)
    alpha = 1.0 / spec.epsilon
    kpow = spec.kappa ** (spec.p / 2.0)
    best, best_idx = -math.inf, (0, 0)
    chunk = max(1, (1 << 22) // vv.size)
    for start in range(0, uu.size, chunk):
        sq = cdist(nx[start : start + chunk], ny, "sqeuclidean")
        w = uu[start : start + chunk, None] - vv[None, :] - alpha * ((spec.kappa + sq) ** (spec.p / 2.0) - kpow)
        k = int(np.argmax(w))
        if float(w.flat[k]) > best:
            best, best_idx = float(w.flat[k]), (start + k // vv.size, k % vv.size)
    return best, best_idx


def _wavy(rng, lo, hi, shape):
    """A smooth random sample on the box grid [lo, hi] with the given node counts."""
    g = GridFunction(np.array(lo, float), np.array(hi, float), np.zeros(shape))
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    vals = sum(
        rng.normal() / k * np.prod([np.cos(k * 2.0 * x + rng.uniform(0, 2 * math.pi)) for x in mesh], axis=0)
        for k in range(1, 6)
    )
    return g.with_values(vals)


def _doubling_grids(case):
    rng = np.random.default_rng(1805)
    if case in ("1d-512", "2d-48x48"):
        dim, n_nodes = (1, 512) if case == "1d-512" else (2, 48)
        return random_grid_function(rng, dim, n_nodes, box=2.0), random_grid_function(rng, dim, n_nodes, box=2.0)
    if case == "2d-30x17-box":  # anisotropic, lo != -hi
        return (_wavy(rng, [-0.4, 0.3], [1.1, 0.8], (30, 17)), _wavy(rng, [-0.4, 0.3], [1.1, 0.8], (30, 17)))
    if case == "1d-mismatched":  # different boxes and node counts
        return _wavy(rng, [-0.3], [1.7], (300,)), _wavy(rng, [0.5], [3.0], (77,))
    return _wavy(rng, [-0.4, 0.3], [1.1, 0.8], (30, 17)), _wavy(rng, [-1.0, 0.0], [0.7, 1.5], (21, 40))


@pytest.mark.parametrize("kappa", [1e-3, 0.1, 0.5])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("case", ["1d-512", "2d-48x48", "2d-30x17-box", "1d-mismatched", "2d-mismatched"])
def test_doubling_matches_dense_scan(case, p, kappa):
    u, v = _doubling_grids(case)
    for grids in ((u, v), (v, u)) if "mismatched" in case else ((u, v),):
        for eps in (0.05, 0.5):
            spec = PenalizationSpec(epsilon=eps, kappa=kappa, p=p)
            res = doubling_maximize(*grids, spec)
            # the same float and the same pair, not merely close
            assert (res.value, res.index) == _dense_doubling(*grids, spec)
            assert np.array_equal(res.x_star, grids[0].nodes()[res.index[0]])
            assert np.array_equal(res.y_star, grids[1].nodes()[res.index[1]])


def test_doubling_tie_rule():
    spec = PenalizationSpec(epsilon=8.0, kappa=0.5, p=2.0)
    line = (np.array([0.0]), np.array([8.0]))  # integer nodes, so tied distances are exact
    # from x = 4 the dips of v at y = 2 and y = 6 tie; the lower y wins
    u = GridFunction(*line, np.eye(9)[4])
    v = GridFunction(*line, -np.eye(9)[2] - np.eye(9)[6])
    assert doubling_maximize(u, v, spec).index == (4, 2) == _dense_doubling(u, v, spec)[1]
    # the spikes of u at x = 2 and x = 6 tie against the dip of v at y = 4; the lower x wins
    u = GridFunction(*line, np.eye(9)[2] + np.eye(9)[6])
    v = GridFunction(*line, -np.eye(9)[4])
    assert doubling_maximize(u, v, spec).index == (2, 4) == _dense_doubling(u, v, spec)[1]
    # 2-d: spikes at (1, 0) (flat 16) and (0, 8) (flat 8) tie on the diagonal;
    # the one scanned later in row-major tile order has the lower flat index
    vals = np.zeros((16, 16))
    vals[1, 0] = vals[0, 8] = 1.0
    square = (np.array([0.0, 0.0]), np.array([15.0, 15.0]))
    u, v = GridFunction(*square, vals), GridFunction(*square, np.zeros((16, 16)))
    spec = PenalizationSpec(epsilon=0.1, kappa=0.5, p=2.0)
    assert doubling_maximize(u, v, spec).index == (8, 8) == _dense_doubling(u, v, spec)[1]


def _crossed_tie_grids():
    """Two maxima whose x and y flat indices order them oppositely, in two
    different tiles: (x, y) = ((0, 9), (1, 9)), flat (9, 25), and
    ((1, 0), (0, 0)), flat (16, 0).  At eps = 1, p = 2 both score
    1 - 0 - 1 = 0; every other pair scores below -8."""
    u_vals, v_vals = np.full((16, 16), -10.0), np.full((16, 16), 10.0)
    u_vals[0, 9] = u_vals[1, 0] = 1.0
    v_vals[1, 9] = v_vals[0, 0] = 0.0
    square = (np.array([0.0, 0.0]), np.array([15.0, 15.0]))
    return GridFunction(*square, u_vals), GridFunction(*square, v_vals)


def test_doubling_tie_rule_orders_x_before_y():
    # the smaller x wins, though its y is the larger
    u, v = _crossed_tie_grids()
    spec = PenalizationSpec(epsilon=1.0, kappa=0.5, p=2.0)
    res = doubling_maximize(u, v, spec)
    assert (res.value, res.index) == _dense_doubling(u, v, spec) == (0.0, (9, 25))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_doubling_near_tie_needs_the_rounding_margin(dim, p):
    # The penalty falls below the rounding of u - v = 1, so every pair scores
    # exactly the lower bound L = 1.  The tie rule picks pair (0, 0), which
    # lies farther apart than the nearest-node pairs behind L; only the
    # rounding margin brings it inside the scanned radius.
    u = GridFunction(np.full(dim, 1.0), np.full(dim, 2.0), np.ones((9,) * dim))
    v = GridFunction(np.full(dim, -1.0), np.full(dim, 0.0), np.zeros((6,) * dim))
    spec = PenalizationSpec(epsilon=1e18, kappa=0.5, p=p)
    res = doubling_maximize(u, v, spec)
    assert (res.value, res.index) == _dense_doubling(u, v, spec) == (1.0, (0, 0))


def test_doubling_maximiser_on_the_pruning_radius():
    # u on the nodes 0..7, v on -4..11, all integers, p = 2 and eps = 1, so
    # every score is exact.  The maximum 1 is attained at (x, y) = (5, 5),
    # the nearest-node pair behind L = 1, and at (0, -2), which the tie rule
    # picks.  The bound max u - min v - L = 2 + 3 - 1 = 4 = psi(R) gives R = 2,
    # so y = -2 sits exactly on the edge of the scanned sub-box.
    u_vals = np.zeros(8)
    u_vals[0], u_vals[5] = 2.0, 1.0
    v_vals = np.zeros(16)  # v_vals[k] is v at y = k - 4
    v_vals[[2, 3, 4, 5]] = [-3.0, 0.5, 1.5, 0.5]
    u = GridFunction(np.array([0.0]), np.array([7.0]), u_vals)
    v = GridFunction(np.array([-4.0]), np.array([11.0]), v_vals)
    spec = PenalizationSpec(epsilon=1.0, kappa=0.5, p=2.0)
    res = doubling_maximize(u, v, spec)
    assert (res.value, res.index) == _dense_doubling(u, v, spec) == (1.0, (0, 2))
    assert res.x_star.tolist() == [0.0] and res.y_star.tolist() == [-2.0]


@pytest.mark.parametrize("dim", [1, 2])
def test_doubling_maximiser_on_the_per_node_radius(dim):
    # u on the integer nodes 0..7 per axis (one tile), v on -4..13, all
    # integers, p = 2 and eps = 1, so every score is exact.  The maximum 1 is
    # attained at x = y = 5 (per axis), the nearest-node pair behind L = 1,
    # and at x = 0 against y* = -2 in 1-d or (-1, -2) in 2-d, which the tie
    # rule picks.  v(y*) = 1 - |y*|^2, so the tile's bound through v(y*),
    # max u - v(y*) - L = |y*|^2 = psi(R), puts y* exactly at distance R from
    # the tile.  min v = -30 at the far corner 13 lies far below v(y*); the
    # tile's global bound 2 + 30 - 1 = 31 reaches past y*.
    y_star = (-2,) if dim == 1 else (-1, -2)
    near = sum(c * c for c in y_star)
    u_vals = np.zeros((8,) * dim)
    u_vals[(0,) * dim], u_vals[(5,) * dim] = 2.0, 1.0
    v_vals = np.zeros((18,) * dim)  # v_vals[k] is v at y = k - 4, per axis
    v_vals[(17,) * dim] = -30.0
    v_vals[tuple(c + 4 for c in y_star)] = 1.0 - near
    # near the origin v stays high enough that x = 0 scores below 1 there
    v_vals[(4,) * dim] = 1.5
    for k in range(dim):
        for step in (-1, 1):
            v_vals[tuple(4 + step * (m == k) for m in range(dim))] = 0.5
    u = GridFunction(np.zeros(dim), np.full(dim, 7.0), u_vals)
    v = GridFunction(np.full(dim, -4.0), np.full(dim, 13.0), v_vals)
    spec = PenalizationSpec(epsilon=1.0, kappa=0.5, p=2.0)
    res = doubling_maximize(u, v, spec)
    y_index = int(np.ravel_multi_index(tuple(c + 4 for c in y_star), v_vals.shape))
    assert (res.value, res.index) == _dense_doubling(u, v, spec) == (1.0, (0, y_index))
    assert res.x_star.tolist() == [0.0] * dim and res.y_star.tolist() == list(map(float, y_star))


@st.composite
def _doubling_cases(draw):
    """Two grids in d in 1..3 with their own node counts (up to 40, 12 and 6
    per axis) and boxes, values drawn, quantised or constant (zero among
    them) at scales up to 1e300, coordinates up to 1e150 in size, eps from
    1e-12 to 1e18, kappa in {1e-3, 0.1, 0.5} and p in [1, 2].  v's box is
    mostly a shifted and stretched copy of u's, so the grids overlap; the
    numbers come from a drawn seed."""
    dim = draw(st.integers(1, 3))
    top = {1: 40, 2: 12, 3: 6}[dim]
    shapes = [tuple(draw(st.lists(st.integers(2, top), min_size=dim, max_size=dim))) for _ in range(2)]
    kind = draw(st.sampled_from(["normal", "quantised", "constant"]))
    kappa, p = draw(st.sampled_from([1e-3, 0.1, 0.5])), draw(st.floats(1.0, 2.0))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = PenalizationSpec(epsilon=10.0 ** rng.uniform(-12.0, 18.0), kappa=kappa, p=p)
    vals = {
        "normal": lambda shape: rng.normal(size=shape),
        "quantised": lambda shape: rng.integers(-4, 5, shape) / 4,
        "constant": lambda shape: np.full(shape, float(rng.integers(-1, 2))),
    }[kind]
    width = 10.0 ** rng.uniform(-3.0, 150.0, dim)
    lo = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.uniform(-3.0, 150.0, dim)
    if rng.random() < 0.8:
        v_lo, v_width = lo + width * rng.uniform(-1.0, 1.0, dim), width * 10.0 ** rng.uniform(-1.0, 1.0, dim)
    else:
        v_lo, v_width = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.uniform(-3.0, 150.0, dim), width[::-1]
    grids = [
        GridFunction(np.where(a + w > a, a, 0.0), np.where(a + w > a, a, 0.0) + w, vals(shape) * scale)
        for a, w, shape in ((lo, width, shapes[0]), (v_lo, v_width, shapes[1]))
    ]
    return grids[0], grids[1], spec


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_doubling_cases())
def test_property_doubling_matches_dense_scan(case):
    u, v, spec = case
    res = doubling_maximize(u, v, spec)  # no RuntimeWarning, even where a penalty overflows
    with np.errstate(over="ignore"):  # the oracle scores every pair, far ones to -inf
        want = _dense_doubling(u, v, spec)
    assert (res.value, res.index) == want
    assert res.x_star.tobytes() == u.nodes()[res.index[0]].tobytes()
    assert res.y_star.tobytes() == v.nodes()[res.index[1]].tobytes()


@pytest.mark.parametrize("p", [1.9, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_doubling_overflowing_penalties_score_minus_inf(dim, p):
    # eps = 1e-12 on grids 1e150 apart: at p = 2 every penalty overflows, so
    # every pair scores -inf and the tie rule picks (0, 0); at p = 1.9 the
    # scores stay finite.  Neither raises a RuntimeWarning.
    rng = np.random.default_rng(7)
    u = GridFunction(np.full(dim, 1e150), np.full(dim, 1.5e150), rng.normal(size=(9,) * dim))
    v = GridFunction(np.full(dim, -1e150), np.full(dim, -0.5e150), rng.normal(size=(10,) * dim))
    spec = PenalizationSpec(epsilon=1e-12, kappa=0.5, p=p)
    res = doubling_maximize(u, v, spec)
    with np.errstate(over="ignore"):
        assert (res.value, res.index) == _dense_doubling(u, v, spec)
    assert (res.value == -math.inf) == (p == 2.0)


def test_doubling_rejects_overflowing_difference():
    u = GridFunction(np.array([0.0]), np.array([1.0]), np.full(4, 1e308))
    with pytest.raises(ValueError, match="overflows"):
        doubling_maximize(u, u.with_values(-u.values), PenalizationSpec(epsilon=0.1, kappa=0.5, p=2.0))


def test_sup_convolution_tie_rule():
    # 1-d: from node 1 the nodes 0 and 2 tie; the lower index wins.
    u = GridFunction(np.array([0.0]), np.array([4.0]), np.array([1.0, -5.0, 1.0, -5.0, -5.0]))
    conv, ach = sup_convolution(u, 1.0, with_achievers=True)
    assert conv.values[1] == 0.0 and ach[1] == 0
    # 2-d: two spikes at (0, 2) and (2, 0), flat indices 2 and 6, tie on the
    # diagonal.  The lowest index on the last axis wins, so the diagonal
    # picks (2, 0), where the lowest flat index would pick (0, 2).
    vals = np.full((3, 3), -10.0)
    vals[0, 2] = vals[2, 0] = 1.0
    u = GridFunction(np.array([0.0, 0.0]), np.array([2.0, 2.0]), vals)
    conv, ach = sup_convolution(u, 1.0, with_achievers=True)
    assert ach.reshape(3, 3).tolist() == [[6, 2, 2], [6, 6, 2], [6, 6, 6]]
    assert conv.values[1, 1] == -1.0 and conv.values[0, 0] == -3.0


def _full_pass_sup_convolution(u, delta):
    """Each 1-d pass scoring every node against every node, kept as the
    reference for the windowed pass: (values, flat achievers)."""
    w, args = u.values, []
    for k, a in enumerate(u.axes()):
        cand = np.moveaxis(w, k, -1)[..., None, :] - (a[:, None] - a[None, :]) ** 2 / delta
        arg = np.argmax(cand, axis=-1)
        w = np.moveaxis(np.take_along_axis(cand, arg[..., None], axis=-1)[..., 0], -1, k)
        args.append(np.moveaxis(arg, -1, k))
    idx = list(np.indices(w.shape))
    for k in reversed(range(u.dim)):
        idx[k] = args[k][tuple(idx)]
    return w, np.ravel_multi_index(idx, w.shape).reshape(-1)


def _assert_window_is_exact(u, delta):
    conv, ach = sup_convolution(u, delta, with_achievers=True)
    values, achievers = _full_pass_sup_convolution(u, delta)
    assert conv.values.tobytes() == values.tobytes()
    assert np.array_equal(ach, achievers)


def _window_grid(case):
    rng = np.random.default_rng(1805)
    if case == "quantised-1d-512":  # ties, see test_sup_convolution_window_width
        return GridFunction(np.array([-1.0]), np.array([1.0]), rng.integers(-8, 9, 512) / 4)
    if case == "constant-2d":
        return GridFunction(np.array([0.0, -3.0]), np.array([1.0, 5.0]), np.full((9, 12), -7.5))
    if case == "near-1e308":  # max - min overflows
        vals = rng.choice([-1.0, 1.0], 64) * rng.uniform(1e307, 1.7e308, 64)
        return GridFunction(np.array([-1.0]), np.array([1.0]), vals)
    if case == "subnormal-nodes":  # adjacent nodes about 3 subnormal steps apart
        return GridFunction(np.array([0.0]), np.array([1e-321]), rng.normal(size=64))
    if case == "zeros-on-subnormal-nodes":  # every off-node penalty underflows to 0: all tie
        return GridFunction(np.array([0.0]), np.array([1e-321]), np.zeros(64))
    if case == "equal-nodes":  # 64 nodes over 10 subnormal steps: adjacent nodes coincide
        return GridFunction(np.array([0.0]), np.array([5e-323]), rng.normal(size=64))
    if case == "2d-30x17-box":
        return GridFunction(np.array([-0.4, 0.3]), np.array([1.1, 0.8]), rng.normal(size=(30, 17)))
    if case == "3d-9x7x11":
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 9.0])
        return GridFunction(lo, hi, rng.normal(size=(9, 7, 11)))
    if case == "two-nodes":
        return GridFunction(np.array([0.0]), np.array([1.0]), np.array([0.3, -0.2]))
    return GridFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))  # 2x2


@pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-3, 1e-1, 10.0, 1e6])
@pytest.mark.parametrize(
    "case",
    ["quantised-1d-512", "constant-2d", "near-1e308", "subnormal-nodes", "zeros-on-subnormal-nodes",
     "equal-nodes", "2d-30x17-box", "3d-9x7x11", "two-nodes", "2x2"],
)
def test_sup_convolution_window_matches_the_full_pass(case, delta):
    _assert_window_is_exact(_window_grid(case), delta)


def test_sup_convolution_window_width():
    # quantised values at delta 1e-3: the window is narrower than the axis,
    # and some nodes have tied maxima inside it
    u = _window_grid("quantised-1d-512")
    (a,) = u.axes()
    assert _window_width(a, u.values, 1e-3) < a.size
    cand = u.values[None, :] - (a[:, None] - a[None, :]) ** 2 / 1e-3
    assert ((cand == cand.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
    # an overflowing max - min and coinciding nodes scan the whole axis
    for case in ("near-1e308", "equal-nodes"):
        u = _window_grid(case)
        (a,) = u.axes()
        assert _window_width(a, u.values, 1e-3) == a.size


@st.composite
def _window_cases(draw):
    """A grid in d in 1..3 (up to 512, 40 and 10 nodes per axis), values
    drawn, quantised or constant at scales up to 1e308, a box from 1e-321 to
    1e3 wide, and delta from 1e-12 to 1e6.  The numbers come from a drawn
    seed."""
    dim = draw(st.integers(1, 3))
    top = {1: 512, 2: 40, 3: 10}[dim]
    shape = tuple(draw(st.lists(st.integers(2, top), min_size=dim, max_size=dim)))
    scale = 10.0 ** draw(st.integers(-300, 308))
    kind = draw(st.sampled_from(["normal", "quantised", "constant"]))
    delta = 10.0 ** draw(st.floats(-12.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = {
        "normal": lambda: rng.uniform(-1.0, 1.0, shape),
        "quantised": lambda: rng.integers(-4, 5, shape) / 4,
        "constant": lambda: np.full(shape, rng.uniform(-1.0, 1.0)),
    }[kind]() * scale
    width = 10.0 ** rng.uniform(-321.0, 3.0, dim)
    lo = np.where(rng.random(dim) < 0.5, 0.0, rng.uniform(-100.0, 100.0, dim))
    lo = np.where(lo + width > lo, lo, 0.0)
    return GridFunction(lo, lo + width, vals), delta


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_window_cases())
def test_property_sup_convolution_window_matches_the_full_pass(case):
    _assert_window_is_exact(*case)


def test_levy_op_affine_compensation_exact():
    gx = np.linspace(-2.0, 2.0, 65)
    u = GridFunction(np.array([-2.0]), np.array([2.0]), 3.0 * gx + 1.0)
    mu = DiscreteMeasure(1, [[0.25], [-0.75]], [1.0, 2.0])
    assert levy_op_eval(u, [0.1], mu, [3.0]) == pytest.approx(0.0, abs=1e-12)


def test_levy_op_quadratic_node_aligned():
    n = 129  # spacing 1/32, so z = 0.5 lands on nodes
    gx = np.linspace(-2.0, 2.0, n)
    u = GridFunction(np.array([-2.0]), np.array([2.0]), gx**2)
    mu = DiscreteMeasure(1, [[0.5], [-0.5]], [2.0, 2.0])
    assert levy_op_eval(u, [0.0], mu, [0.0]) == pytest.approx(1.0, abs=1e-12)
    assert levy_op_eval(u, [0.25], mu, [0.5]) == pytest.approx(1.0, abs=1e-12)


def test_levy_op_linearity(rng, make_grid_function, make_measure):
    u = make_grid_function(rng, 1, 128, box=2.0)
    v = make_grid_function(rng, 1, 128, box=2.0)
    mu = make_measure(rng, 1, max_atoms=8, inner=0.05, outer=0.9, allow_empty=False)
    nu = make_measure(rng, 1, max_atoms=8, inner=0.05, outer=0.9, allow_empty=False)
    x, g = [0.1], [0.3]
    both = DiscreteMeasure(
        1,
        np.concatenate([mu.positions, nu.positions]),
        np.concatenate([mu.weights, nu.weights]),
    )
    assert levy_op_eval(u, x, both, g) == pytest.approx(
        levy_op_eval(u, x, mu, g) + levy_op_eval(u, x, nu, g), abs=1e-12
    )
    summed = u.with_values(u.values + 2.0 * v.values)
    assert levy_op_eval(summed, x, mu, [0.0]) == pytest.approx(
        levy_op_eval(u, x, mu, [0.0]) + 2.0 * levy_op_eval(v, x, mu, [0.0]), abs=1e-12
    )


def test_doubling_equal_functions_strong_penalty(rng, make_grid_function):
    u = make_grid_function(rng, 1, 128)
    spec = PenalizationSpec(epsilon=1e-5, kappa=0.5, p=2.0)
    res = doubling_maximize(u, u, spec)
    assert res.value == 0.0
    assert np.array_equal(res.x_star, res.y_star)


def test_doubling_spike_forces_coincidence():
    vals = np.zeros(64)
    vals[40] = 1.0
    u = GridFunction(np.array([0.0]), np.array([1.0]), vals)
    v = GridFunction(np.array([0.0]), np.array([1.0]), np.zeros(64))
    spec = PenalizationSpec(epsilon=1e-4, kappa=0.5, p=2.0)
    res = doubling_maximize(u, v, spec)
    assert res.index == (40, 40)
    assert res.value == pytest.approx(1.0)


def test_doubling_penalty_decreases_with_epsilon(rng, make_grid_function):
    u = make_grid_function(rng, 1, 256)
    v = make_grid_function(rng, 1, 256)
    prev = math.inf
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        spec = PenalizationSpec(epsilon=eps, kappa=0.5, p=1.5)
        res = doubling_maximize(u, v, spec)
        term = np.linalg.norm(res.x_star - res.y_star) ** 1.5 / eps
        assert term <= prev + 1e-12
        prev = term


def test_coupling_inequality_equal_measures(rng, make_grid_function, make_measure):
    u = make_grid_function(rng, 1, 192, box=2.0)
    v = make_grid_function(rng, 1, 192, box=2.0)
    mu = make_measure(rng, 1, max_atoms=10, inner=0.05, outer=0.9, allow_empty=False)
    spec = PenalizationSpec(epsilon=0.1, kappa=1e-3, p=1.5)
    chk = coupling_inequality_check(u, v, spec, mu, mu)
    assert chk.rhs == 0.0
    assert chk.lhs <= 1e-8
    assert chk.passed


def test_coupling_inequality_single_atoms():
    gx = np.linspace(-2.0, 2.0, 257)
    u = GridFunction(np.array([-2.0]), np.array([2.0]), -(gx**2))
    v = GridFunction(np.array([-2.0]), np.array([2.0]), gx**2 + 0.1)
    spec = PenalizationSpec(epsilon=0.2, kappa=1e-3, p=2.0)
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    nu = DiscreteMeasure(1, [[0.25]], [1.0])
    chk = coupling_inequality_check(u, v, spec, mu, nu)
    # the transport term is the cheaper of moving directly or through 0
    assert chk.distance_p == pytest.approx(min(0.25**2, 0.5**2 + 0.25**2))
    assert chk.passed


def test_coupling_full_measure_variant(rng, make_grid_function, make_measure):
    u = make_grid_function(rng, 1, 160, box=2.0)
    v = make_grid_function(rng, 1, 160, box=2.0)
    inner = make_measure(rng, 1, max_atoms=8, inner=0.05, outer=0.9, allow_empty=False)
    far_mu = DiscreteMeasure(1, [[1.5]], [0.7])
    far_nu = DiscreteMeasure(1, [[1.25]], [0.4])
    mu = DiscreteMeasure(
        1,
        np.concatenate([inner.positions, far_mu.positions]),
        np.concatenate([inner.weights, far_mu.weights]),
    )
    nu = DiscreteMeasure(
        1,
        np.concatenate([inner.positions, far_nu.positions]),
        np.concatenate([inner.weights, far_nu.weights]),
    )
    spec = PenalizationSpec(epsilon=0.1, kappa=1e-3, p=1.5)
    chk = coupling_inequality_check(u, v, spec, mu, nu)
    assert chk.tv_term == pytest.approx(2.0 * v.sup_norm() * 1.1)
    assert chk.passed


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_coupling_in_the_unit_ball_has_no_tv_term(p, make_grid_function, make_measure):
    # inside the unit ball the bound is the transport term alone, bit for bit
    rng = np.random.default_rng(4242)
    for _ in range(6):
        u = make_grid_function(rng, 1, 96, box=2.0)
        v = make_grid_function(rng, 1, 96, box=2.0)
        eps = float(rng.uniform(0.05, 0.5))
        spec = PenalizationSpec(epsilon=eps, kappa=0.1, p=p)
        mu, nu = (make_measure(rng, 1, max_atoms=8, inner=0.05, outer=0.95, allow_empty=False) for _ in range(2))
        chk = coupling_inequality_check(u, v, spec, mu, nu)
        assert chk.tv_term == 0.0
        assert chk.rhs == pointwise_power_constant(p) * (1.0 / eps) * distance(mu, nu, p) ** p


def _translation_equation(lam: float = 1.0, center: float = 0.5, shift: float = 0.1) -> EquationSpec:
    return EquationSpec(
        lam=lam,
        f=lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x),
        measures=lambda x: DiscreteMeasure(1, [[center + shift * math.sin(x)]], [1.0]),
    )


def test_equation_spec_validation():
    # an infinite lam would make the gap read -inf
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            EquationSpec(lam=lam, f=lambda x: 0.0, measures=lambda x: DiscreteMeasure.empty(1))
    assert _translation_equation(2.5).lam == 2.5


def _loop_operator(eq: EquationSpec, nodes: np.ndarray, length: float) -> np.ndarray:
    """The operator summed node by node and atom by atom: the reference for the assembly."""
    n = nodes.size
    h = length / n
    A = np.zeros((n, n))
    for i, xi in enumerate(nodes):
        A[i, i] += eq.lam
        mu = eq.measures(float(xi))
        for z, w in zip(mu.positions[:, 0], mu.weights):
            t = (xi + z - nodes[0]) / h
            k0 = int(math.floor(t)) % n
            frac = t - math.floor(t)
            A[i, k0] -= w * (1.0 - frac)
            A[i, (k0 + 1) % n] -= w * frac
            A[i, i] += w
            if abs(z) < 1.0:
                A[i, (i + 1) % n] += w * z / (2.0 * h)
                A[i, (i - 1) % n] -= w * z / (2.0 * h)
    return A


def _spread_family(x: float) -> DiscreteMeasure:
    """Negative atoms, an atom on the unit sphere, one beyond it, and no atoms where sin x < -0.5."""
    if math.sin(x) < -0.5:
        return DiscreteMeasure.empty(1)
    pos = [[-0.3 - 0.1 * math.sin(x)], [0.05], [1.0], [-2.5 + 0.2 * math.cos(x)], [7.0 + math.sin(3.0 * x)]]
    return DiscreteMeasure(1, pos, [0.7, 2.0, 1.3, 0.4, 0.25])


@pytest.mark.parametrize(
    "eq, n_nodes",
    [
        (_translation_equation(), 8),
        (_translation_equation(), 64),
        (_translation_equation(), 512),
        (EquationSpec(lam=1.0, f=math.sin, measures=_spread_family), 8),
        (EquationSpec(lam=0.1 * math.pi, f=math.sin, measures=_spread_family), 97),
        (_translation_equation(1.0, -0.5, -0.1), 8),
        (_translation_equation(1.0, 2.0**510, 0.0), 8),
        (_translation_equation(1.0, -(2.0**510), 0.0), 8),
        (_translation_equation(1.0, -(2.0**-511), 0.0), 8),
        (EquationSpec(lam=1.0, f=math.sin, measures=lambda x: DiscreteMeasure.empty(1)), 8),
    ],
    ids=["one-atom-8", "one-atom-64", "one-atom-512", "spread-8", "spread-97", "negative-center",
         "center-2^510", "center--2^510", "center--2^-511", "empty"],
)
def test_operator_assembly_matches_the_loop_bit_for_bit(eq, n_nodes):
    # summed in another order, some diagonal entries of the spread cases take
    # other bits, so these cases pin the order down
    length = 2.0 * math.pi
    nodes = np.linspace(0.0, length, n_nodes, endpoint=False)
    A = _assemble_periodic_operator(eq, nodes, length)
    assert A.tobytes() == _loop_operator(eq, nodes, length).tobytes()


def test_translation_family_distance_is_exactly_lipschitz():
    eq = _translation_equation()
    for x, y in ((0.0, 0.5), (1.0, 1.3), (2.0, 2.001)):
        d = distance(eq.measures(x), eq.measures(y), 2.0)
        assert d == pytest.approx(abs(0.1 * (math.sin(x) - math.sin(y))), abs=1e-12)
        assert d <= 0.1 * abs(x - y) + 1e-12


def test_basic_idea_experiment_zero_forcing():
    eq = EquationSpec(lam=1.0, f=lambda x: 0.0, measures=_translation_equation().measures)
    report = basic_idea_experiment(eq, n_nodes=128)
    assert report.u.sup_norm() == 0.0
    assert report.u_leq_v
    assert all(r.gap <= 0.0 for r in report.rows)


def test_basic_idea_experiment_localizes():
    report = basic_idea_experiment(_translation_equation(), n_nodes=512)
    assert report.u_leq_v
    assert report.penalty_decreasing
    assert report.rows[-1].penalty_term <= 1e-3
