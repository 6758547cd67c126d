"""Tests for measure families, discretization, splits, and sweeps."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from levyot.bounds import pushforward_bound, radial_lower_bound
from levyot.families import (
    AnnularGrid,
    FracLaplFamily,
    KernelFamily,
    LevyItoFamily,
    build_family,
    discretize_kernel,
    pushforward,
    regularity_sweep,
    split_fraclap,
    sweep_pairs,
    _discretize_density,
    _grid_runtime,
    _power_truncation,
    _unit_power_law,
)
from levyot import measures
from levyot.measures import DiscreteMeasure, decompose
from levyot.transport import RAY_CERT_TOL, CostSpec, _ray_ids, _ray_keys, _solve_rays, _solve_simplex, distance, solve


def powerlaw_kernel(sigma: float, dim: int = 1, coef: float = 1.0) -> KernelFamily:
    expo = -(dim + sigma)
    return KernelFamily(
        density=lambda x, Z: coef * np.linalg.norm(np.atleast_2d(Z), axis=1) ** expo,
        dim=dim,
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        AnnularGrid(r_min=0.0)
    with pytest.raises(ValueError):
        AnnularGrid(r_min=1.0, r_max=0.5)
    grid = AnnularGrid(r_min=1e-2, r_max=1.0, n_radial=10)
    edges = grid.radial_edges(extra=(0.05, 2.0))
    assert edges[0] == 1e-2 and edges[-1] == 1.0
    assert 0.05 in edges and 2.0 not in edges


def test_discretize_zero_density_gives_empty():
    fam = KernelFamily(
        density=lambda x, Z: np.zeros(np.atleast_2d(Z).shape[0]),
        dim=1,
    )
    grid = AnnularGrid(r_min=1e-2, r_max=1.0, n_radial=20)
    assert discretize_kernel(fam, [0.0], grid).n_atoms == 0


def test_discretize_mass_converges_to_antiderivative():
    sigma = 0.5
    fam = powerlaw_kernel(sigma)
    grid = AnnularGrid(r_min=1e-3, r_max=1.0, n_radial=400)
    mu = discretize_kernel(fam, [0.0], grid)
    exact = (2.0 / sigma) * (1e-3 ** (-sigma) - 1.0)
    assert abs(mu.total_mass() - exact) / exact <= 1e-3


def test_discretize_x_independent():
    fam = powerlaw_kernel(0.7)
    grid = AnnularGrid(r_min=1e-2, n_radial=50)
    a = discretize_kernel(fam, [0.0], grid)
    b = discretize_kernel(fam, [5.0], grid)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.weights, b.weights)


def test_discretize_refinement_improves_self_distance():
    """Doubling the shell count moves the discretization by less and less."""
    sigma, p = 0.5, 1.5
    fam = powerlaw_kernel(sigma)
    gaps = []
    for n_radial in (50, 100, 200):
        coarse = discretize_kernel(fam, [0.0], AnnularGrid(r_min=1e-2, n_radial=n_radial))
        fine = discretize_kernel(fam, [0.0], AnnularGrid(r_min=1e-2, n_radial=2 * n_radial))
        gaps.append(distance(coarse, fine, p))
    assert gaps[0] > gaps[1] > gaps[2]


def test_discretize_d2_and_d3_mass():
    for dim, omega in ((2, 2 * math.pi), (3, 4 * math.pi)):
        sigma = 0.5
        fam = powerlaw_kernel(sigma, dim=dim)
        grid = AnnularGrid(r_min=0.05, r_max=1.0, n_radial=100, n_angular=24)
        mu = discretize_kernel(fam, np.zeros(dim), grid)
        exact = omega * (0.05 ** (-sigma) - 1.0) / sigma
        assert mu.total_mass() == pytest.approx(exact, rel=1e-3)


def _per_direction_discretization(density, dim, grid, extra_breaks=()):
    """Reference: the cell quadrature one direction at a time, one density call each."""
    edges = grid.radial_edges(extra_breaks)
    dirs, ang_w = grid.directions(dim)
    sub = grid.refine
    ratio = (edges[1:] / edges[:-1])[:, None] ** (np.arange(sub + 1)[None, :] / sub)
    sub_edges = edges[:-1, None] * ratio
    sub_mid = 0.5 * (sub_edges[:, :-1] + sub_edges[:, 1:])
    sub_vol = (sub_edges[:, 1:] ** dim - sub_edges[:, :-1] ** dim) / dim
    half = math.pi / grid.n_angular
    pull = math.sin(half) / half if dim == 2 else 1.0
    positions, weights, lefts = [], [], []
    for e in dirs:
        vals = np.asarray(density(sub_mid.reshape(-1)[:, None] * e[None, :]), dtype=float).reshape(sub_mid.shape)
        cell_mass = (vals * sub_vol).sum(axis=1) * ang_w
        moment = (vals * sub_vol * sub_mid).sum(axis=1) * ang_w
        keep = cell_mass > 0.0
        positions.append((moment[keep] / cell_mass[keep])[:, None] * (pull * e)[None, :])
        weights.append(cell_mass[keep])
        lefts.append(edges[:-1][keep])
    return tuple(np.concatenate(part) for part in (positions, weights, lefts))


def _skewed_kernel(dim: int, one_sided: bool) -> KernelFamily:
    """A power law modulated by direction; ``one_sided`` zeroes the half-space z_0 <= 0."""
    expo = -(dim + 0.5)

    def density(x, Z):
        r = np.linalg.norm(Z, axis=1)
        tilt = np.maximum(Z[:, 0], 0.0) / r if one_sided else 1.0 + 0.5 * np.sin(x[0] + 3.0 * Z[:, -1] / r)
        return tilt * r**expo

    return KernelFamily(density=density, dim=dim)


def test_discretization_matches_the_reference_at_two_endpoints():
    # two endpoints on one grid: the bits of the per-direction reference at each
    fam = _skewed_kernel(2, False)
    grid = AnnularGrid(r_min=1e-3, r_max=2.0, n_radial=30, n_angular=7, refine=5)
    for x in (np.full(2, 0.7), np.full(2, -0.4)):
        got = _discretize_density(lambda Z: fam.density(x, Z), 2, grid, (0.3, 1.0))
        want = _per_direction_discretization(lambda Z: fam.density(x, Z), 2, grid, (0.3, 1.0))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_discretization_matches_per_direction_reference(dim):
    x = np.full(dim, 0.7)
    for one_sided in (False, True):
        fam = _skewed_kernel(dim, one_sided)
        for grid in (AnnularGrid(r_min=1e-3, r_max=2.0, n_radial=30, n_angular=7, refine=5), AnnularGrid(n_radial=12)):
            for extra in ((), (0.3, 1.0)):
                calls = []

                def density(Z):
                    calls.append(Z.shape)
                    return fam.density(x, Z)

                got = _discretize_density(density, dim, grid, extra)
                want = _per_direction_discretization(lambda Z: fam.density(x, Z), dim, grid, extra)
                assert len(calls) == 1
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                # the one-sided density leaves whole directions empty
                n_cells = len(grid.directions(dim)[0]) * (len(grid.radial_edges(extra)) - 1)
                assert 0 < got[1].size and (got[1].size < n_cells) == one_sided


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_discretization_rejects_negative_and_non_finite_densities(dim):
    # each fault sits only on directions with z_0 < 0, none of them the first one
    grid = AnnularGrid(r_min=1e-2, n_radial=10, n_angular=4)
    negative = KernelFamily(density=lambda x, Z: np.where(Z[:, 0] < 0.0, -1.0, 1.0), dim=dim)
    with pytest.raises(ValueError, match="^density must be nonnegative$"):
        discretize_kernel(negative, np.zeros(dim), grid)
    for bad in (np.inf, np.nan):
        broken = KernelFamily(density=lambda x, Z: np.where(Z[:, 0] < 0.0, bad, 1.0), dim=dim)
        with pytest.raises(ValueError, match="^density returned a non-finite value$"):
            discretize_kernel(broken, np.zeros(dim), grid)


def test_split_fraclap_supports_and_masses():
    sigma = 1.5
    fam = FracLaplFamily(a=lambda x: 0.25, sigma=sigma, dim=1)
    grid = AnnularGrid(r_min=1e-3, r_max=2.0, n_radial=300)
    hat, tilde, check = split_fraclap(fam, [0.0], grid)
    rx = 0.25 ** (1.0 / sigma)
    assert hat.max_radius() < rx
    assert tilde.n_atoms and tilde.radii.min() > rx and tilde.max_radius() < 1.0
    assert check.n_atoms and check.radii.min() > 1.0

    def annulus_mass(a, lo, hi):
        return 2.0 * a * (lo**-sigma - hi**-sigma) / sigma

    assert hat.total_mass() == pytest.approx(annulus_mass(0.25, 1e-3, rx), rel=1e-3)
    assert tilde.total_mass() == pytest.approx(annulus_mass(0.25, rx, 1.0), rel=1e-3)
    assert check.total_mass() == pytest.approx(annulus_mass(0.25, 1.0, 2.0), rel=1e-3)


def test_split_fraclap_union_mass_matches_refined_discretization():
    sigma = 1.5
    fam = FracLaplFamily(a=lambda x: 0.4, sigma=sigma, dim=1)
    grid = AnnularGrid(r_min=1e-2, r_max=2.0, n_radial=120)
    hat, tilde, check = split_fraclap(fam, [0.0], grid)
    union_mass = hat.total_mass() + tilde.total_mass() + check.total_mass()
    whole = 2.0 * 0.4 * (1e-2**-sigma - 2.0**-sigma) / sigma
    assert union_mass == pytest.approx(whole, rel=1e-3)


def test_split_fraclap_degenerate_coefficients():
    grid = AnnularGrid(r_min=1e-3, r_max=2.0, n_radial=100)
    full = FracLaplFamily(a=lambda x: 1.0, sigma=1.5, dim=1)
    hat, tilde, check = split_fraclap(full, [0.0], grid)
    assert tilde.n_atoms == 0  # split radius reaches the unit sphere
    tiny = FracLaplFamily(a=lambda x: 1e-12, sigma=1.5, dim=1)
    hat, tilde, check = split_fraclap(tiny, [0.0], grid)
    assert hat.total_mass() <= 1e-9
    with pytest.raises(ValueError):
        FracLaplFamily(a=lambda x: 0.5, sigma=1.0, dim=1)
    with pytest.raises(ValueError):
        FracLaplFamily(a=lambda x: 0.5, sigma=2.0, dim=1)


def test_pushforward_examples():
    base = DiscreteMeasure(1, [[1.0]], [3.0])
    fam = LevyItoFamily(
        base=base,
        maps=lambda x: (lambda Z: 2.0 * np.atleast_2d(Z)),
        dim_out=1,
    )
    out = pushforward(fam, [0.0])
    assert out.positions[0, 0] == 2.0 and out.weights[0] == 3.0
    ident = LevyItoFamily(
        base=base,
        maps=lambda x: (lambda Z: np.atleast_2d(Z)),
        dim_out=1,
    )
    unchanged = pushforward(ident, [3.0])
    assert np.array_equal(unchanged.positions, base.positions)
    killer = LevyItoFamily(
        base=base,
        maps=lambda x: (lambda Z: np.zeros_like(np.atleast_2d(Z))),
        dim_out=1,
    )
    assert pushforward(killer, [0.0]).n_atoms == 0
    # an image near the origin but not on it is refused by name, not dropped
    shrink = dataclasses.replace(killer, maps=lambda x: (lambda Z: 1e-200 * np.atleast_2d(Z)))
    with pytest.raises(ValueError, match=r"atom 0: \|z\| = 1e-200 is below 2\^-511"):
        pushforward(shrink, [0.0])


def test_pushforward_respects_coupling_bound(rng):
    pos = rng.normal(size=(15, 2))
    pos = pos[np.linalg.norm(pos, axis=1) > 0.05]
    base = DiscreteMeasure(2, pos, rng.uniform(0.2, 1.0, len(pos)))

    def map_at(x):
        shift = 0.1 * math.sin(float(x[0]))
        return lambda Z: np.atleast_2d(Z) + np.array([shift, 0.0])[None, :]

    fam = LevyItoFamily(
        base=base,
        maps=map_at,
        dim_out=2,
    )
    for p in (1.0, 1.5, 2.0):
        x, y = np.array([0.3]), np.array([1.2])
        lhs = distance(pushforward(fam, x), pushforward(fam, y), p) ** p
        rhs = pushforward_bound(map_at(x), map_at(y), base, p)
        assert lhs <= rhs + 1e-8


def test_regularity_sweep_constant_family():
    fixed = DiscreteMeasure(1, [[0.5]], [1.0])
    pairs = sweep_pairs(5, 1, seed=11)
    report = regularity_sweep(lambda x: fixed, pairs, p=1.5, s=1.0)
    assert report.max_ratio == 0.0
    assert all(r.distance == 0.0 for r in report.rows)
    assert report.certified == 5


def test_regularity_sweep_translation_family():
    slope = 0.37
    z0 = 0.5

    def family(x):
        return DiscreteMeasure(1, [[z0 + slope * float(x[0])]], [1.0])

    pairs = [(np.array([0.0]), np.array([t])) for t in (1e-3, 1e-2, 5e-2)]
    for p in (1.0, 1.5, 2.0):
        report = regularity_sweep(family, pairs, p=p, s=1.0)
        for row in report.rows:
            assert row.ratio == pytest.approx(slope, rel=1e-9)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_regularity_sweep_rejects_bad_exponent(s):
    fixed = DiscreteMeasure(1, [[0.5]], [1.0])
    with pytest.raises(ValueError, match="exponent s must be positive and finite"):
        regularity_sweep(lambda x: fixed, [(np.array([0.0]), np.array([0.1]))], 1.0, s)


def test_regularity_sweep_refuses_ratios_outside_the_float_range():
    def unused(x):
        raise AssertionError("refused before any measure is built")

    # |x - y|^s underflows to 0 (0.001^1e6) or overflows (10^400)
    for sep, s in ((1e-3, 1e6), (10.0, 400.0)):
        with pytest.raises(ValueError, match="leaves the float range"):
            regularity_sweep(unused, [(np.array([0.0]), np.array([sep]))], 1.0, s)

    # 0.001^105 is a subnormal 1e-315: the divisor is positive, the ratio is not finite
    def family(x):
        return DiscreteMeasure(1, [[0.5 + 0.37 * float(x[0])]], [1.0])

    with pytest.raises(ValueError, match="overflows"):
        regularity_sweep(family, [(np.array([0.0]), np.array([1e-3]))], 1.0, 105.0)

    # a truncation cost that is not finite is refused before the pair is solved
    for tc in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            regularity_sweep(unused, [(np.array([0.0]), np.array([0.1]))], 2.0, 1.0, lambda x, tc=tc: tc)


def test_regularity_sweep_rejects_coincident_pairs():
    fixed = DiscreteMeasure(1, [[0.5]], [1.0])
    with pytest.raises(ValueError):
        regularity_sweep(lambda x: fixed, [(np.array([0.1]), np.array([0.1]))], 1.0, 1.0)


def test_sweep_pairs_seeded_and_spaced():
    a = sweep_pairs(8, 2, seed=3)
    b = sweep_pairs(8, 2, seed=3)
    for (x1, y1), (x2, y2) in zip(a, b):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    seps = [np.linalg.norm(y - x) for x, y in a]
    assert seps[0] == pytest.approx(1e-3)
    assert seps[-1] == pytest.approx(0.5)
    assert all(s2 > s1 for s1, s2 in zip(seps, seps[1:]))
    assert sweep_pairs(0, 1, seed=0) == []


def test_fraclap_pushforward_sweep_bounded_at_small_separations():
    """Scaled push-forwards of one reference stay transport-Lipschitz all the
    way down to separations of 1e-3, at any exponent above the order."""
    sigma = 1.5
    grid = AnnularGrid(r_min=1e-3, r_max=1.0, n_radial=120)
    reference = discretize_kernel(powerlaw_kernel(sigma), [0.0], grid)
    lipschitz = 0.25

    def split_radius(x):
        return 0.5 + lipschitz * math.sin(float(x[0]))

    fam = LevyItoFamily(
        base=reference,
        maps=lambda x: (lambda Z, s=split_radius(x): s * np.atleast_2d(Z)),
        dim_out=1,
    )
    pairs = sweep_pairs(8, 1, seed=17)
    for p in (1.75, 2.0):
        report = regularity_sweep(lambda x: pushforward(fam, x), pairs, p=p, s=1.0)
        assert report.max_ratio <= lipschitz * reference.p_moment(p) ** (1.0 / p) + 1e-10


def test_build_family_configs():
    cfg = {
        "type": "kernel",
        "dim": 1,
        "sigma": 0.5,
        "gamma": 1.0,
        "params": {"base": 1.0, "amplitude": 0.5},
        "grid": {"r_min": 1e-2, "n_radial": 40},
    }
    runtime = build_family(cfg)
    mu = runtime.make_measure([0.0])
    assert mu.n_atoms == 80  # 40 shells on two rays
    tc = runtime.truncation_cost([0.0], 1.0)
    # closed form: 2 * (base) * r_min^{p - sigma} / (p - sigma)
    assert tc == pytest.approx(2.0 * 1e-2**0.5 / 0.5, rel=1e-8)

    frl = build_family(
        {
            "type": "fraclap",
            "dim": 1,
            "sigma": 1.5,
            "params": {"a0": 0.5, "a1": 0.25, "part": "split_hat"},
            "grid": {"r_min": 1e-3, "r_max": 1.0, "n_radial": 60},
        }
    )
    hat = frl.make_measure([0.0])
    assert hat.max_radius() < 0.5 ** (1.0 / 1.5)

    lev = build_family(
        {
            "type": "levyito",
            "dim": 1,
            "sigma": 0.5,
            "params": {"kind": "translation", "shift": 0.1},
            "grid": {"r_min": 0.05, "n_radial": 30},
        }
    )
    m0 = lev.make_measure([0.0])
    m1 = lev.make_measure([math.pi / 2.0])
    assert m0.n_atoms == m1.n_atoms
    assert not np.array_equal(m0.positions, m1.positions)

    with pytest.raises(ValueError):
        build_family({"type": "nope"})
    with pytest.raises(ValueError):
        build_family({})


def _grid_config(kind: str, dim: int, sigma: float, params: dict) -> dict:
    return {"type": kind, "dim": dim, "sigma": sigma, "params": params,
            "grid": {"r_min": 1e-3, "r_max": 1.0, "n_radial": 20, "n_angular": 8}}


# (config, coefficient of |z|^{-d-sigma} at x, p > sigma)
_KERNEL = {"base": 1.0, "amplitude": 0.5}
_FRACLAP = {"a0": 0.5, "a1": 0.25}
TRUNCATION_CASES = {
    **{
        f"kernel-d{dim}": (_grid_config("kernel", dim, 0.5, _KERNEL), lambda x: 1.0 + 0.5 * math.sin(x[0]), 1.5)
        for dim in (1, 2, 3)
    },
    **{
        f"fraclap-{part}": (
            _grid_config("fraclap", 2, 1.5, {**_FRACLAP, "part": part}),
            lambda x: (0.5 + 0.25 * math.sin(x[0])) ** 1.5,
            2.0,
        )
        for part in ("full", "split_hat")
    },
    "constant": (_grid_config("constant", 2, 0.5, {}), lambda x: 1.0, 1.0),
}
SOLID_ANGLE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_truncation_cost_matches_closed_form(case):
    config, coef, p = TRUNCATION_CASES[case]
    runtime = build_family(config)
    sigma, r_min = config["sigma"], config["grid"]["r_min"]
    radial = r_min ** (p - sigma) / (p - sigma)
    for x in ([0.3, -0.2, 0.1], [-1.2, 0.7, 0.0]):
        x = x[: config["dim"]]
        expected = coef(x) * SOLID_ANGLE[config["dim"]] * radial
        assert runtime.truncation_cost(x, p) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_truncation_cost_is_linear_in_the_coefficient(case):
    config, coef, p = TRUNCATION_CASES[case]
    runtime = build_family(config)
    points = [[t, 0.5 * t, -t][: config["dim"]] for t in (-2.0, -0.4, 0.0, 0.9, 1.6)]
    per_unit = [runtime.truncation_cost(x, p) / coef(x) for x in points]
    assert per_unit == pytest.approx([per_unit[0]] * len(points), rel=1e-14)


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_sweep_runs_the_truncation_quadrature_once_per_runtime_and_p(case, monkeypatch):
    config, coef, p = TRUNCATION_CASES[case]
    dim, sigma, grid = config["dim"], config["sigma"], AnnularGrid(**config["grid"])
    exponents = (p, 1.9)
    radial = {q: _power_truncation(dim, sigma, q, grid) for q in exponents}
    calls = []
    monkeypatch.setattr("scipy.integrate.quad", lambda *args, **kwargs: calls.append(1) or quad(*args, **kwargs))
    pairs = sweep_pairs(3, dim, seed=4)
    for runs in (1, 2):  # a second runtime computes the integral afresh
        runtime = build_family(config)
        for q in exponents:
            report = regularity_sweep(
                runtime.make_measure, pairs, p=q, s=1.0, truncation_cost=lambda x: runtime.truncation_cost(x, q)
            )
            for row, (x, y) in zip(report.rows, pairs):
                assert row.truncation_cost == max(coef(x) * radial[q], coef(y) * radial[q])
        assert len(calls) == runs * len(exponents)


@pytest.mark.parametrize("case", ["kernel-d1", "kernel-d2", "kernel-d3", "fraclap-full", "constant"])
def test_grid_families_put_every_point_on_one_grid(case):
    # Grid pairs take solve's ray path, which labels atoms by their snapped
    # directions (_ray_ids): the atoms at x and at y sit on the same sites,
    # bit for bit, since only the weights depend on x.
    config = TRUNCATION_CASES[case][0]
    runtime = build_family(config)
    for x, y in sweep_pairs(8, config["dim"], seed=3):
        at_x, at_y = runtime.make_measure(x), runtime.make_measure(y)
        assert at_x.n_atoms == at_y.n_atoms > 0
        assert np.array_equal(at_x.positions, at_y.positions)
        assert np.array_equal(at_x.radii, at_y.radii)


def test_grid_measure_keeps_the_unit_sites_and_scales_the_weights(monkeypatch):
    # make_measure(x) is the constructor's measure on the unit measure's rows
    # with coef(x) times its weights, bit for bit; it raises the constructor's
    # error wherever that does, and it runs no site merge
    merges = []
    real_merge = measures._merge_sites
    monkeypatch.setattr(measures, "_merge_sites", lambda *args: merges.append(1) or real_merge(*args))
    grid = AnnularGrid(r_min=1e-3, n_radial=20, n_angular=8)
    refused = []
    for dim in (1, 2, 3):
        unit = _unit_power_law(dim, 0.5, grid)
        runtime = _grid_runtime(dim, 0.5, grid, coef=lambda x: float(x[0]))
        # plain coefficients; weights that round to 0 (below 0.5); a largest
        # weight of 2^1023 whose total overflows; inf, -1, 0 and nan
        top = float(unit.weights.max())
        for c in (0.7, 1.3, 5e-324, 2.0**1023 / top, math.inf, -1.0, 0.0, math.nan):
            try:
                want = DiscreteMeasure(dim, unit.positions, c * unit.weights)
            except ValueError as exc:
                want = exc
            before = len(merges)
            if isinstance(want, ValueError):
                refused.append(str(want))
                with pytest.raises(ValueError, match=f"^{re.escape(str(want))}$"):
                    runtime.make_measure([c] * dim)
            else:
                got = runtime.make_measure([c] * dim)
                for a, b in ((got.positions, want.positions), (got.weights, want.weights), (got.radii, want.radii)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable
            assert len(merges) == before
    for text in ("got 0.0", "got inf", "got -", "got nan", "the total weight overflows"):
        assert any(text in message for message in refused)


def test_levyito_scaling_reads_one_sigma():
    # Without "sigma" a scaling family's default base and its map share the
    # default 1.5, so mu_x is the unit power law scaled by a(x)^{1/sigma}:
    # a(x) |z|^{-d-sigma}.  Translation keeps its default, 0.5.
    grid = {"r_min": 1e-2, "n_radial": 20, "n_angular": 6}
    cfg = {"type": "levyito", "dim": 2, "params": {"kind": "scaling"}, "grid": grid}
    implicit, explicit = build_family(cfg), build_family({**cfg, "sigma": 1.5})
    unit = _unit_power_law(2, 1.5, AnnularGrid(**grid))
    for x in ([0.3, -0.1], [-1.2, 0.4]):
        scale = (0.5 + 0.25 * math.sin(x[0])) ** (1.0 / 1.5)
        want = explicit.make_measure(x)
        assert want.positions.tobytes() == (scale * unit.positions).tobytes()
        got = implicit.make_measure(x)
        for a, b in ((got.positions, want.positions), (got.weights, want.weights), (got.radii, want.radii)):
            assert a.tobytes() == b.tobytes()
    cfg = {"type": "levyito", "dim": 1, "params": {"kind": "translation"}, "grid": grid}
    got, want = build_family(cfg).make_measure([0.2]), build_family({**cfg, "sigma": 0.5}).make_measure([0.2])
    assert got.positions.tobytes() == want.positions.tobytes() and got.weights.tobytes() == want.weights.tobytes()


def _random_line_measure(rng) -> DiscreteMeasure:
    n = int(rng.integers(1, 60))
    radii = 10.0 ** rng.uniform(-3.0, 1.0, n)
    return DiscreteMeasure(1, (radii * rng.choice([-1.0, 1.0], n))[:, None], 10.0 ** rng.uniform(-2.0, 3.0, n))


def test_ray_ids_share_a_label_exactly_on_shared_rays():
    # Directions drawn from a small pool, including mirror images that share
    # all but one coordinate, at random radii; two atoms share a label exactly
    # when they were drawn on the same direction.
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3):
        pool = rng.normal(size=(6, dim))
        pool = np.concatenate([pool, pool * np.r_[np.ones(dim - 1), -1.0]])
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        for n_mu, n_nu in ((40, 30), (0, 5), (0, 0)):
            drawn = rng.integers(0, len(pool), n_mu + n_nu)
            pos = pool[drawn] * rng.uniform(0.01, 2.0, drawn.size)[:, None]
            mu = DiscreteMeasure(dim, pos[:n_mu].reshape(-1, dim), np.ones(n_mu))
            nu = DiscreteMeasure(dim, pos[n_mu:].reshape(-1, dim), np.ones(n_nu))
            ids = np.concatenate(_ray_ids(_ray_keys(mu, nu), mu.n_atoms))
            distinct = np.unique(pool[drawn], axis=0, return_inverse=True)[1].reshape(-1)
            assert np.array_equal(ids[:, None] == ids[None, :], distinct[:, None] == distinct[None, :])


def test_ray_coupling_is_exact_in_one_dimension():
    # In d = 1 the rays are the two half-lines.  No optimal arc crosses the
    # origin, since (|x| + |y|)^p >= |x|^p + |y|^p, so the monotone coupling
    # of each half-line, which solve takes, is optimal; on one half-line the
    # ray path certifies that same report, bit for bit.  Where exactly one
    # side has no atom there, the ray path is not tried.
    rng = np.random.default_rng(16)
    for _ in range(300):
        p = float(rng.choice([1.0, 1.5, 2.0]))
        mu, nu = _random_line_measure(rng), _random_line_measure(rng)
        report = solve(mu, nu, CostSpec(p))
        assert report.path == "line"
        assert report.value == pytest.approx(_solve_simplex(mu, nu, CostSpec(p)).value, rel=1e-12, abs=0.0)
        ids = np.concatenate(_ray_ids(_ray_keys(mu, nu), mu.n_atoms))
        west = np.concatenate([mu.positions[:, 0], nu.positions[:, 0]]) < 0.0
        assert np.array_equal(ids[:, None] == ids[None, :], west[:, None] == west[None, :])
        east_mu, east_nu = (DiscreteMeasure(1, m.positions[m.positions[:, 0] > 0.0], m.weights[m.positions[:, 0] > 0.0])
                            for m in (mu, nu))
        rays = _solve_rays(east_mu, east_nu, CostSpec(p))
        if (east_mu.n_atoms == 0) != (east_nu.n_atoms == 0):
            assert rays is None
            continue
        assert rays.path == "rays"
        assert rays.to_dict() == solve(east_mu, east_nu, CostSpec(p)).to_dict()


# The kernel and heavy-mass fractional configs of the perfbench family sweep.
SWEEP_KERNEL = {
    "type": "kernel", "dim": 2, "sigma": 0.5, "gamma": 1.0, "params": {"base": 1.0, "amplitude": 0.5},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_radial": 60, "n_angular": 8},
}
SWEEP_HEAVY = {
    "type": "fraclap", "dim": 2, "sigma": 1.8, "params": {"a0": 0.5, "a1": 0.25, "part": "full"},
    "grid": {"r_min": 1e-7, "r_max": 1.0, "n_radial": 120, "n_angular": 8},
}


def _hats(runtime, x, y):
    return decompose(runtime.make_measure(x)).hat, decompose(runtime.make_measure(y)).hat


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_kernel_sweep_rows_are_certified_and_match_the_simplex(p):
    runtime = build_family(SWEEP_KERNEL)
    pairs = sweep_pairs(6, 2, seed=7)
    report = regularity_sweep(runtime.make_measure, pairs, p=p, s=1.0)
    assert report.certified == len(report.rows) == 6
    for row, (x, y) in zip(report.rows, pairs):
        hat_x, hat_y = _hats(runtime, x, y)
        assert row.distance == pytest.approx(distance(hat_x, hat_y, p), rel=1e-12, abs=0.0)


def test_heavy_sweep_rows_stay_below_the_in_place_plan():
    # Masses reach about 1.7e11 on atoms near 1e-7.  The endpoints share one
    # cell layout, so keeping min(w_a, w_b) in each cell and trading the rest
    # with the reservoir is a feasible plan; the optimum cannot exceed it.
    runtime = build_family(SWEEP_HEAVY)
    pairs = sweep_pairs(3, 2, seed=2018)
    report = regularity_sweep(runtime.make_measure, pairs, p=2.0, s=1.0)
    assert report.certified == 3
    for row, (x, y) in zip(report.rows, pairs):
        a, b = _hats(runtime, x, y)
        assert a.n_atoms == b.n_atoms == 960
        move = np.sum((a.positions - b.positions) ** 2, axis=1)
        in_place = math.fsum(
            (
                np.minimum(a.weights, b.weights) * move
                + np.maximum(a.weights - b.weights, 0.0) * a.radii**2
                + np.maximum(b.weights - a.weights, 0.0) * b.radii**2
            ).tolist()
        )
        value = row.distance**2
        assert value <= in_place * (1.0 + 1e-12)
        # and it meets the radial lower bound, so it is the optimum
        assert value == pytest.approx(radial_lower_bound(a, b, 2.0), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("config", [SWEEP_KERNEL, SWEEP_HEAVY, _grid_config("kernel", 3, 0.5, _KERNEL)],
                         ids=["kernel", "heavy", "kernel-d3"])
def test_ray_plan_is_a_vertex(config):
    # The ray plan's support, direct arcs plus nonzero reservoir flows, is a
    # forest over the m + n atoms and the two reservoir nodes, so it has at
    # most m + n + 1 arcs and the plan is a vertex of the transportation polytope.
    runtime = build_family(config)
    for x, y in sweep_pairs(3, config["dim"], seed=2018):
        mu, nu = _hats(runtime, x, y)
        m, n = mu.n_atoms, nu.n_atoms
        for p in (1.0, 2.0):
            report = solve(mu, nu, CostSpec(p))
            assert report.path == "rays"
            plan = report.plan
            # nodes: mu atoms 0..m-1, the mu side's reservoir m, nu atoms m+1..m+n, the nu side's reservoir m+n+1
            arcs = [(i, m + 1 + j) for i, j in zip(plan.direct_rows.tolist(), plan.direct_cols.tolist())]
            arcs += [(i, m + n + 1) for i in np.flatnonzero(plan.to_reservoir).tolist()]
            arcs += [(m, m + 1 + j) for j in np.flatnonzero(plan.from_reservoir).tolist()]
            assert len(arcs) <= m + n + 1
            root = list(range(m + n + 2))

            def find(a):
                while root[a] != a:
                    a = root[a]
                return a

            for a, b in arcs:
                ra, rb = find(a), find(b)
                assert ra != rb  # no cycle
                root[ra] = rb


def test_levyito_translation_sweep_falls_back_to_the_simplex():
    runtime = build_family(
        {"type": "levyito", "dim": 2, "sigma": 0.5, "params": {"kind": "translation", "shift": 0.1},
         "grid": {"r_min": 1e-2, "r_max": 1.0, "n_radial": 20, "n_angular": 6}}
    )
    pairs = sweep_pairs(3, 2, seed=5)
    for p in (1.0, 2.0):
        report = regularity_sweep(runtime.make_measure, pairs, p=p, s=1.0)
        assert report.certified == 0
        for row, (x, y) in zip(report.rows, pairs):
            assert row.distance == distance(*_hats(runtime, x, y), p)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_constant_family_sweeps_to_exact_zero(dim):
    runtime = build_family(_grid_config("constant", dim, 0.5, {}))
    report = regularity_sweep(runtime.make_measure, sweep_pairs(4, dim, seed=9), p=2.0, s=1.0)
    assert report.certified == 4
    assert [row.distance for row in report.rows] == [0.0] * 4
    assert report.max_ratio == 0.0


def _gross(report, mu, nu, p):
    """G of a plan: the sum over its arcs of mass * (|x| + |y|)^p."""
    plan = report.plan
    reach = mu.radii[plan.direct_rows] + nu.radii[plan.direct_cols]
    return math.fsum(
        (plan.direct_vals * reach**p).tolist() + (plan.to_reservoir * mu.radii**p).tolist()
        + (plan.from_reservoir * nu.radii**p).tolist()
    )


def test_sweep_certificate_accepts_within_its_allowance():
    # d = 3 kernel grid: every ray is shared, so U meets R within RAY_CERT_TOL * G
    runtime = build_family(_grid_config("kernel", 3, 0.5, _KERNEL))
    for x, y in sweep_pairs(4, 3, seed=12):
        hat_x, hat_y = _hats(runtime, x, y)
        for p in (1.0, 1.5, 2.0):
            report = solve(hat_x, hat_y, CostSpec(p))
            assert report.path == "rays" and report.iterations == 0
            lower = radial_lower_bound(hat_x, hat_y, p)
            assert abs(report.value - lower) <= RAY_CERT_TOL * _gross(report, hat_x, hat_y, p)
            assert report.value == pytest.approx(_solve_simplex(hat_x, hat_y, CostSpec(p)).value, rel=1e-12, abs=0.0)
    # atoms of one measure on a ray the other does not use: U pays the
    # reservoir for them where R pairs them, so solve goes to the simplex
    east = DiscreteMeasure(2, [[0.5, 0.0], [0.2, 0.0], [0.0, 0.5]], [1.0, 3.0, 1.0])
    north = DiscreteMeasure(2, [[0.0, 0.5], [0.0, 0.2]], [1.0, 3.0])
    assert _solve_rays(east, north, CostSpec(2.0)) is None
    report = solve(east, north, CostSpec(2.0))
    assert report.path == "simplex"
    assert report.value == pytest.approx(3.0 * 0.08 + 0.25, rel=1e-15)
    assert radial_lower_bound(east, north, 2.0) < report.value
