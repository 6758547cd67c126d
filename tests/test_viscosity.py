"""Tests for the grid machinery: penalties, convolutions, the jump operator,
doubling maximization, the coupling inequality, and the linear experiment."""

import math

import numpy as np
import pytest
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
)


def test_penalization_spec_validation():
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.0, kappa=0.5, p=2.0)
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.1, kappa=1.0, p=2.0)
    with pytest.raises(ValueError):
        PenalizationSpec(epsilon=0.1, kappa=0.5, p=0.5)


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
    low, low_ach = inf_convolution(u, delta, with_achievers=True)
    neg_best, neg_at = _dense_sup_convolution(u.with_values(-u.values), delta, low_ach)
    assert np.max(np.abs(low.values.reshape(-1) + neg_best)) <= 1e-13
    assert np.max(np.abs(neg_at - neg_best)) <= 1e-13


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
    with pytest.raises(ValueError):
        coupling_inequality_check(u, v, spec, mu, nu)
    chk = coupling_inequality_check(u, v, spec, mu, nu, full_measure=True)
    assert chk.tv_term == pytest.approx(2.0 * v.sup_norm() * 1.1)
    assert chk.passed


def test_coupling_rejects_non_maximum():
    gx = np.linspace(-1.0, 1.0, 65)
    u = GridFunction(np.array([-1.0]), np.array([1.0]), np.sin(3 * gx))
    v = GridFunction(np.array([-1.0]), np.array([1.0]), np.cos(2 * gx))
    spec = PenalizationSpec(epsilon=0.1, kappa=0.5, p=2.0)
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    with pytest.raises(ValueError):
        coupling_inequality_check(
            u, v, spec, mu, mu, xy_star=(np.array([-1.0]), np.array([1.0]))
        )


def _translation_equation(lam: float = 1.0) -> EquationSpec:
    return EquationSpec(
        lam=lam,
        lam1=lam,
        c=lambda x: lam,
        f=lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x),
        measures=lambda x: DiscreteMeasure(1, [[0.5 + 0.1 * math.sin(x)]], [1.0]),
        lipschitz_C=0.1,
    )


def test_equation_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec(lam=0.0, lam1=1.0, c=lambda x: 1.0, f=lambda x: 0.0,
                     measures=lambda x: DiscreteMeasure.empty(1))
    eq = _translation_equation()
    assert eq.validate([0.0, 1.0, 2.0]) == []


def test_translation_family_distance_is_exactly_lipschitz():
    eq = _translation_equation()
    from levyot.transport import distance

    for x, y in ((0.0, 0.5), (1.0, 1.3), (2.0, 2.001)):
        d = distance(eq.measures(x), eq.measures(y), 2.0)
        assert d == pytest.approx(abs(0.1 * (math.sin(x) - math.sin(y))), abs=1e-12)
        assert d <= 0.1 * abs(x - y) + 1e-12


def test_basic_idea_experiment_zero_forcing():
    eq = EquationSpec(
        lam=1.0, lam1=1.0, c=lambda x: 1.0, f=lambda x: 0.0,
        measures=lambda x: DiscreteMeasure(1, [[0.5 + 0.1 * math.sin(x)]], [1.0]),
        lipschitz_C=0.1,
    )
    report = basic_idea_experiment(eq, n_nodes=128)
    assert report.u.sup_norm() == 0.0
    assert report.u_leq_v
    assert all(r.gap <= 0.0 for r in report.rows)


def test_basic_idea_experiment_localizes():
    report = basic_idea_experiment(_translation_equation(), n_nodes=512)
    assert report.u_leq_v
    assert report.penalty_decreasing
    assert report.rows[-1].penalty_term <= 1e-3
