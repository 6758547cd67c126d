"""Tests for the closed-form distance bounds against the exact solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levyot.bounds import (
    RadialTestFunction,
    mutilde_checks,
    positive_part_dual_bound,
    pushforward_bound,
    radial_lower_bound,
    restricted_integral_bound,
    restriction_bound,
    tv_power_bound,
)
from levyot.families import FracLaplFamily
from levyot.measures import DiscreteMeasure, restrict_outside
from levyot.transport import CostSpec, DualPotentials, distance, dual_value, solve

SLACK = 1e-8


def test_tv_power_bound_examples():
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    assert tv_power_bound(mu, mu, 1.5) == 0.0
    nu = DiscreteMeasure(1, [[0.5]], [2.0])
    # at p = 1 the bound is exactly the reweighted total variation
    assert tv_power_bound(mu, nu, 1.0) == pytest.approx(0.5, abs=0)
    assert distance(mu, nu, 1.0) == pytest.approx(0.5)
    empty = DiscreteMeasure.empty(1)
    b = tv_power_bound(mu, empty, 2.0)
    assert b == pytest.approx(math.sqrt(2.0) * 0.5)
    assert b >= distance(mu, empty, 2.0) - SLACK
    outside = DiscreteMeasure(1, [[1.5]], [1.0])
    with pytest.raises(ValueError):
        tv_power_bound(outside, mu, 1.0)


def test_positive_part_examples():
    nu = DiscreteMeasure(1, [[0.5], [0.7]], [1.0, 2.0])
    assert positive_part_dual_bound(nu, nu, 2.0) == 0.0
    mu = DiscreteMeasure(
        1, [[0.5], [0.7], [0.3]], [1.0, 2.0, 1.0]
    )  # nu plus one extra atom
    bound = positive_part_dual_bound(mu, nu, 2.0)
    assert bound == pytest.approx(0.09)
    assert distance(mu, nu, 2.0) ** 2 <= bound + SLACK
    # empty nu: everything rides to the reservoir, bound is tight
    empty = DiscreteMeasure.empty(1)
    assert positive_part_dual_bound(mu, empty, 2.0) == pytest.approx(
        distance(mu, empty, 2.0) ** 2
    )
    with pytest.raises(ValueError):
        positive_part_dual_bound(nu, mu, 2.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_positive_part_bound_against_nothing_is_the_p_moment(p):
    # one p-th power of a radius (measures._pow) in every p-moment: at
    # p = 1.5 a Python r**p differs from it in the last bit on this instance
    rng = np.random.default_rng(8)
    mu = DiscreteMeasure(2, rng.normal(size=(40, 2)), rng.uniform(0.1, 2.0, 40))
    assert positive_part_dual_bound(mu, DiscreteMeasure.empty(2), p) == mu.p_moment(p)


def test_restriction_bound_examples():
    mu = DiscreteMeasure(1, [[0.1], [0.5]], [1.0, 1.0])
    assert restriction_bound(mu, 0.05, 2.0) == 0.0
    b = restriction_bound(mu, 0.3, 2.0)
    assert b == pytest.approx(0.01)
    assert distance(mu, restrict_outside(mu, 0.3), 2.0) ** 2 <= b + SLACK
    single = DiscreteMeasure(1, [[0.2]], [3.0])
    bound = restriction_bound(single, 0.5, 1.5)
    exact = distance(single, restrict_outside(single, 0.5), 1.5) ** 1.5
    assert bound == pytest.approx(exact)
    with pytest.raises(ValueError):
        restriction_bound(mu, 1.5, 2.0)


def test_pushforward_bound_examples(rng):
    base = DiscreteMeasure(1, [[0.4], [-0.8], [1.2]], np.ones(3))
    ident = lambda Z: np.atleast_2d(Z)
    assert pushforward_bound(ident, ident, base, 2.0) == 0.0
    c = 0.15
    shifted = lambda Z: np.atleast_2d(Z) + c
    bound = pushforward_bound(ident, shifted, base, 1.5)
    assert bound == pytest.approx(c**1.5 * 3.0)
    image = DiscreteMeasure(1, base.positions + c, base.weights)
    assert distance(base, image, 1.5) ** 1.5 <= bound + SLACK


def test_pushforward_bound_relabel_invariance(rng):
    pos = rng.normal(size=(6, 2)) + 0.2
    w = rng.uniform(0.2, 1.0, 6)
    perm = rng.permutation(6)
    base = DiscreteMeasure(2, pos, w)
    shuffled = DiscreteMeasure(2, pos[perm], w[perm])
    T1 = lambda Z: np.atleast_2d(Z)
    T2 = lambda Z: 0.8 * np.atleast_2d(Z)
    assert pushforward_bound(T1, T2, base, 2.0) == pytest.approx(
        pushforward_bound(T1, T2, shuffled, 2.0), rel=1e-12
    )


def test_scaling_map_bound_matches_quadrature():
    """Scaling maps z -> a^{1/sigma} z: bound equals |a_x^{1/s} - a_y^{1/s}|^p
    times the p-moment of the base, and dominates the discretized distance."""
    sigma, p = 1.5, 1.75
    ax, ay = 0.3, 0.5
    rx, ry = ax ** (1 / sigma), ay ** (1 / sigma)
    rng = np.random.default_rng(5)
    radii = rng.uniform(0.05, 0.99, 40)
    signs = rng.choice([-1.0, 1.0], 40)
    base = DiscreteMeasure(1, (radii * signs)[:, None], rng.uniform(0.1, 1.0, 40))
    T1 = lambda Z: rx * np.atleast_2d(Z)
    T2 = lambda Z: ry * np.atleast_2d(Z)
    bound = pushforward_bound(T1, T2, base, p)
    expected = abs(rx - ry) ** p * base.p_moment(p)
    assert bound == pytest.approx(expected, rel=1e-12)
    img1 = DiscreteMeasure(1, rx * base.positions, base.weights)
    img2 = DiscreteMeasure(1, ry * base.positions, base.weights)
    assert distance(img1, img2, p) ** p <= bound + SLACK


def test_radial_test_function_validation():
    with pytest.raises(ValueError):
        RadialTestFunction(np.array([0.2, 0.8]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RadialTestFunction(np.array([0.8, 0.2]), np.array([0.0, 0.0]))
    psi = RadialTestFunction.hat(0.2, 0.8)
    assert psi.lipschitz() == pytest.approx(1.0 / 0.3)
    assert psi(np.array([0.5])) == pytest.approx(1.0)
    assert psi(np.array([0.1])) == 0.0


def test_restricted_integral_examples(rng, make_measure):
    mu = make_measure(rng, 1, max_atoms=10, inner=0.05, outer=0.95, allow_empty=False)
    psi = RadialTestFunction.hat(0.2, 0.8)
    lhs, _ = restricted_integral_bound(mu, mu, psi, 1.5, distance(mu, mu, 1.5))
    assert lhs == 0.0
    zero = RadialTestFunction(np.array([0.2, 0.5, 0.8]), np.zeros(3))
    other = make_measure(rng, 1, max_atoms=5, inner=0.05, outer=0.95)
    lhs, rhs = restricted_integral_bound(mu, other, zero, 1.5, distance(mu, other, 1.5))
    assert (lhs, rhs) == (0.0, 0.0)
    for _ in range(15):
        a = make_measure(rng, 2, max_atoms=10, inner=0.05, outer=0.95)
        b = make_measure(rng, 2, max_atoms=10, inner=0.05, outer=0.95)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        lhs, rhs = restricted_integral_bound(a, b, psi, p, distance(a, b, p))
        assert lhs <= rhs + SLACK
    bad = RadialTestFunction(np.array([0.0, 0.4, 0.8]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        restricted_integral_bound(mu, mu, bad, 1.5, 0.0)
    for dist in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dist must be a finite distance"):
            restricted_integral_bound(mu, mu, psi, 1.5, dist)


def test_bounds_suite_instance_solves_four_pairs(monkeypatch):
    # the restricted-integral bound takes the (mu, nu) distance the instance
    # has solved for the total-variation bound instead of solving it again
    import levyot.transport as tr
    from levyot import suites

    calls = []
    solve = tr.solve
    monkeypatch.setattr(tr, "solve", lambda mu, nu, cost: calls.append(1) or solve(mu, nu, cost))
    for seed in range(20):
        calls.clear()
        assert suites.run_suite("bounds", 1, seed).passed
        assert len(calls) == 4


def test_bound_dominance_random(rng, make_measure):
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        mu = make_measure(rng, dim, max_atoms=12, inner=0.05, outer=0.95)
        nu = make_measure(rng, dim, max_atoms=12, inner=0.05, outer=0.95)
        assert tv_power_bound(mu, nu, p) >= distance(mu, nu, p) - SLACK
        r = float(rng.uniform(0.1, 1.0))
        assert (
            restriction_bound(mu, r, p)
            >= distance(mu, restrict_outside(mu, r), p) ** p - SLACK
        )


def test_radial_lower_bound_examples():
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    nu = DiscreteMeasure(1, [[0.7]], [2.0])
    assert radial_lower_bound(mu, mu, 2.0) == 0.0
    # monotone merge from the far end: 1 unit 0.5 -> 0.7, then 1 unit 0 -> 0.7
    assert radial_lower_bound(mu, nu, 2.0) == pytest.approx(0.2**2 + 0.7**2, rel=1e-15)
    assert radial_lower_bound(mu, nu, 2.0) == pytest.approx(solve(mu, nu, CostSpec(2.0)).value, rel=1e-15)
    # against the zero measure every atom trades with the reservoir
    empty = DiscreteMeasure.empty(2)
    cloud = DiscreteMeasure(2, [[0.3, 0.4], [-1.0, 2.0]], [2.0, 0.5])
    for p in (1.0, 1.5, 2.0):
        assert radial_lower_bound(cloud, empty, p) == pytest.approx(cloud.p_moment(p), rel=1e-15)
        assert radial_lower_bound(empty, cloud, p) == pytest.approx(cloud.p_moment(p), rel=1e-15)
    assert radial_lower_bound(empty, empty, 1.0) == 0.0
    # antipodal atoms of equal radius: the bound sees no cost, the distance does
    east, west = DiscreteMeasure(2, [[0.5, 0.0]], [1.0]), DiscreteMeasure(2, [[-0.5, 0.0]], [1.0])
    assert radial_lower_bound(east, west, 2.0) == 0.0 < distance(east, west, 2.0)
    with pytest.raises(ValueError, match="dimension"):
        radial_lower_bound(mu, empty, 2.0)
    with pytest.raises(ValueError, match="exponent p"):
        radial_lower_bound(mu, nu, 2.5)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_radial_lower_bound_needs_one_profile_per_ray(p):
    # both measures use the same two rays of d = 1, each ray once with weight
    # 1, but with swapped profiles: the radial push-forwards coincide while
    # each half-line moves one unit by 1
    mu = DiscreteMeasure(1, [[1.0], [-2.0]], [1.0, 1.0])
    nu = DiscreteMeasure(1, [[-1.0], [2.0]], [1.0, 1.0])
    assert radial_lower_bound(mu, nu, p) == 0.0
    assert solve(mu, nu, CostSpec(p)).value == 2.0


def test_radial_lower_bound_below_solve(rng, make_measure):
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        mu = make_measure(rng, dim, max_atoms=30)
        nu = make_measure(rng, dim, max_atoms=30)
        value = solve(mu, nu, CostSpec(p)).value
        assert radial_lower_bound(mu, nu, p) <= value * (1.0 + 1e-14)
        # on one ray (d = 1, positive atoms) the bound is the exact value
        a = DiscreteMeasure(1, mu.radii[:, None], mu.weights)
        b = DiscreteMeasure(1, nu.radii[:, None], nu.weights)
        exact = solve(a, b, CostSpec(p)).value
        assert radial_lower_bound(a, b, p) == pytest.approx(exact, rel=1e-12, abs=1e-300)


def _exact_radial_cost(mu, nu):
    """R at p = 2 in exact rational arithmetic: the radii merged far end first."""
    sides = []
    for m in (mu, nu):
        atoms = sorted(zip(m.radii.tolist(), m.weights.tolist()), reverse=True)
        sides.append([(Fraction(r), Fraction(w)) for r, w in atoms] + [(Fraction(0), None)])  # then the reservoir
    (a, b), i, j, total = sides, 0, 0, Fraction(0)
    left_a, left_b = a[0][1], b[0][1]
    while left_a is not None or left_b is not None:
        step = min(left for left in (left_a, left_b) if left is not None)
        total += step * (a[i][0] - b[j][0]) ** 2
        if left_a is not None:
            left_a -= step
            if left_a == 0:
                i += 1
                left_a = a[i][1]
        if left_b is not None:
            left_b -= step
            if left_b == 0:
                j += 1
                left_b = b[j][1]
    return total


def test_radial_lower_bound_is_exact_on_long_lines():
    # 20,000 atoms a side with masses from 1e-2 to 1e3: segment masses that
    # are differences of plain cumulative sums put R hundreds of ulps off
    rng = np.random.default_rng(20000)
    mu, nu = (
        DiscreteMeasure(1, (10.0 ** rng.uniform(-3, 1, 20000) * rng.choice([-1.0, 1.0], 20000))[:, None],
                        10.0 ** rng.uniform(-2, 3, 20000))
        for _ in range(2)
    )
    exact = _exact_radial_cost(mu, nu)
    assert abs(Fraction(radial_lower_bound(mu, nu, 2.0)) - exact) <= 4 * math.ulp(float(exact))


def test_mutilde_checks_closed_form():
    fam = FracLaplFamily(
        a=lambda x: 0.25 if float(x[0]) < 0.5 else 0.36,
        sigma=1.5,
        dim=1,
    )
    mass, ratio = mutilde_checks(fam, [0.0], [1.0])
    # omega = 2 in one dimension: mass = (2 / sigma (1 - a))
    assert mass == pytest.approx((2.0 / 1.5) * (1.0 - 0.25), rel=1e-9)
    a_lo, a_hi = 0.25, 0.36
    r_lo, r_hi = a_lo ** (1 / 1.5), a_hi ** (1 / 1.5)
    i1 = 2 * a_lo * (r_lo ** (-0.5) - r_hi ** (-0.5)) / 0.5
    i2 = 2 * (a_hi - a_lo) * (r_hi ** (-0.5) - 1.0) / 0.5
    assert ratio == pytest.approx(i1 + i2, rel=1e-9)


def test_mutilde_checks_degenerate_cases():
    fam = FracLaplFamily(a=lambda x: 0.5, sigma=1.5, dim=1)
    mass, ratio = mutilde_checks(fam, [0.0], [2.0])
    assert ratio == 0.0
    full = FracLaplFamily(a=lambda x: 1.0, sigma=1.5, dim=1)
    mass, _ = mutilde_checks(full, [0.0], [1.0])
    assert mass == pytest.approx(0.0, abs=1e-12)


def test_antisymmetric_lipschitz_pair_feasible(rng, make_measure):
    """Any radial 1-Lipschitz profile vanishing at 0 gives a feasible pair
    (psi, -psi) at p = 1, and its dual value never beats the distance."""
    psi = RadialTestFunction(
        np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.3, 0.1, 0.0])
    )
    assert psi.lipschitz() <= 1.0
    for _ in range(15):
        mu = make_measure(rng, 2, max_atoms=10, inner=0.05, outer=0.95, allow_empty=False)
        nu = make_measure(rng, 2, max_atoms=10, inner=0.05, outer=0.95, allow_empty=False)
        pair = DualPotentials(phi=psi(mu.radii), psi=-psi(nu.radii), p=1.0)
        assert not pair.violations(mu, nu)
        assert dual_value(pair, mu, nu) <= distance(mu, nu, 1.0) + 1e-10
