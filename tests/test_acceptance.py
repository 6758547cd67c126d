"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines.  Criteria 1-3 cache their solved instances so criterion 4
can audit every plan they produced; run standalone it regenerates them.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from levyot import bounds as bnd
from levyot import families as fam
from levyot import transport as tr
from levyot import viscosity as vis
from levyot.measures import DiscreteMeasure, restrict_outside
from levyot.suites import random_grid_function, random_measure, random_unit_measure

CACHE: dict = {"solved": []}


def _remember(mu, nu, p, report):
    CACHE["solved"].append((mu, nu, p, report))


# -- instance streams (seeds pin the acceptance workload) --------------------

def _duality_instances():
    rng = np.random.default_rng(101)
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, dim, max_atoms=40)
        nu = random_measure(rng, dim, max_atoms=40)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        yield mu, nu, p


def _metric_triples():
    rng = np.random.default_rng(202)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        ms = [random_measure(rng, dim, max_atoms=40) for _ in range(3)]
        p = float(rng.choice([1.0, 1.5, 2.0]))
        yield ms[0], ms[1], ms[2], p


def _oracle_instances():
    rng = np.random.default_rng(303)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        yield random_unit_measure(rng, dim), random_unit_measure(rng, dim), float(
            rng.choice([1.0, 1.5, 2.0])
        )


def test_criterion_01_strong_duality():
    start = time.perf_counter()
    worst = 0.0
    for mu, nu, p in _duality_instances():
        rep = tr.solve(mu, nu, tr.CostSpec(p))
        _remember(mu, nu, p, rep)
        limit = 1e-9 * (1.0 + rep.value)
        assert rep.gap <= limit, f"gap {rep.gap} exceeds {limit}"
        worst = max(worst, rep.gap / limit)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"duality run took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 strong duality: PASS (300 instances, worst gap ratio {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_metric_axioms():
    start = time.perf_counter()
    for m1, m2, m3, p in _metric_triples():
        reports = {}
        for key, (a, b) in {
            "d12": (m1, m2), "d21": (m2, m1), "d13": (m1, m3),
            "d23": (m2, m3), "d11": (m1, m1),
        }.items():
            rep = tr.solve(a, b, tr.CostSpec(p))
            _remember(a, b, p, rep)
            reports[key] = rep.value ** (1.0 / p)
        assert abs(reports["d12"] - reports["d21"]) <= 1e-10
        assert reports["d11"] == 0.0
        assert reports["d13"] <= reports["d12"] + reports["d23"] + 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"metric run took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 metric axioms: PASS (200 triples, {elapsed:.1f}s)")


def test_criterion_03_oracle_equivalence():
    worst = 0.0
    for mu, nu, p in _oracle_instances():
        rep = tr.solve(mu, nu, tr.CostSpec(p))
        _remember(mu, nu, p, rep)
        ref = tr.brute_force_unit(mu, nu, p)
        assert abs(rep.value - ref) <= 1e-10
        worst = max(worst, abs(rep.value - ref))
    print(f"ACCEPTANCE 3 oracle equivalence: PASS (100 instances, worst gap {worst:.2e})")


def test_criterion_04_k_support():
    if not CACHE["solved"]:
        # standalone run: regenerate the same instance streams
        for mu, nu, p in _duality_instances():
            _remember(mu, nu, p, tr.solve(mu, nu, tr.CostSpec(p)))
        for m1, m2, m3, p in _metric_triples():
            for a, b in ((m1, m2), (m2, m1), (m1, m3), (m2, m3), (m1, m1)):
                _remember(a, b, p, tr.solve(a, b, tr.CostSpec(p)))
        for mu, nu, p in _oracle_instances():
            _remember(mu, nu, p, tr.solve(mu, nu, tr.CostSpec(p)))
    total_arcs = 0
    for mu, nu, p, rep in CACHE["solved"]:
        arcs = tr.k_support_check(rep.plan, mu, nu, p, tol=1e-9)
        assert arcs == [], f"cheap-set violation: {arcs[:3]}"
        total_arcs += rep.plan.direct_vals.size
    print(
        f"ACCEPTANCE 4 cheap-set support: PASS "
        f"({len(CACHE['solved'])} plans, {total_arcs} direct arcs audited)"
    )


def test_criterion_05_bound_dominance():
    slack = 1e-8
    rng = np.random.default_rng(404)
    checked = {k: 0 for k in ("tv", "pos", "restr", "push", "integral")}
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0]))

        mu = random_measure(rng, dim, max_atoms=15, inner=0.05, outer=0.95)
        nu = random_measure(rng, dim, max_atoms=15, inner=0.05, outer=0.95)
        dist = tr.distance(mu, nu, p)
        assert bnd.tv_power_bound(mu, nu, p) >= dist - slack
        checked["tv"] += 1

        extra = random_measure(rng, dim, max_atoms=6, inner=0.05, outer=0.95)
        total = (
            DiscreteMeasure(
                dim,
                np.concatenate([nu.positions, extra.positions]),
                np.concatenate([nu.weights, extra.weights]),
            )
            if extra.n_atoms
            else nu
        )
        assert (
            bnd.positive_part_dual_bound(total, nu, p)
            >= tr.distance(total, nu, p) ** p - slack
        )
        checked["pos"] += 1

        r = float(rng.uniform(0.1, 1.0))
        assert (
            bnd.restriction_bound(mu, r, p)
            >= tr.distance(mu, restrict_outside(mu, r), p) ** p - slack
        )
        checked["restr"] += 1

        base = random_measure(rng, dim, max_atoms=10, inner=0.05, outer=1.5, allow_empty=False)
        shift = rng.normal(size=dim) * 0.1
        scale = float(rng.uniform(0.7, 1.3))
        T1 = lambda Z: np.atleast_2d(Z)
        T2 = lambda Z: scale * np.atleast_2d(Z) + shift[None, :]
        img_pos = T2(base.positions)
        keep = np.linalg.norm(img_pos, axis=1) > 0
        image = (
            DiscreteMeasure(dim, img_pos[keep], base.weights[keep])
            if keep.any()
            else DiscreteMeasure.empty(dim)
        )
        assert (
            bnd.pushforward_bound(T1, T2, base, p)
            >= tr.distance(base, image, p) ** p - slack
        )
        checked["push"] += 1

        a = float(rng.uniform(0.1, 0.4))
        b = float(rng.uniform(a + 0.2, 1.0))
        psi = bnd.RadialTestFunction.hat(a, b, height=float(rng.uniform(0.5, 2.0)))
        lhs, rhs = bnd.restricted_integral_bound(mu, nu, psi, p, dist)
        assert lhs <= rhs + slack
        checked["integral"] += 1
    assert all(v == 100 for v in checked.values())
    print("ACCEPTANCE 5 bound dominance: PASS (5 bounds x 100 instances)")


def test_criterion_06_kernel_sweep_below_quadrature_bound():
    start = time.perf_counter()
    sigma, p, s = 0.5, 1.0, 1.0
    family = fam.KernelFamily(
        density=lambda x, Z: (1.0 + 0.5 * math.sin(float(x[0])))
        * np.linalg.norm(np.atleast_2d(Z), axis=1) ** (-1.0 - sigma),
        dim=1,
    )
    grid = fam.AnnularGrid(r_min=1e-3, r_max=1.0, n_radial=250)
    make = lambda x: fam.discretize_kernel(family, x, grid)
    pairs = fam.sweep_pairs(12, 1, seed=606)
    report = fam.regularity_sweep(make, pairs, p=p, s=s)

    moment, _ = quad(lambda r: r * r ** (-1.0 - sigma), 0.0, 1.0, epsabs=1e-12, epsrel=1e-10)
    for row in report.rows:
        dcoef = 0.5 * abs(math.sin(float(row.x[0])) - math.sin(float(row.y[0])))
        bound_ratio = 2.0 * moment * dcoef / row.separation  # both rays
        assert row.ratio <= 1.1 * bound_ratio + 1e-12, (
            f"ratio {row.ratio} exceeds quadrature bound {bound_ratio}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"kernel sweep took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 6 kernel sweep: PASS (12 pairs, max ratio "
        f"{report.max_ratio:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_07_fraclap_estimates():
    start = time.perf_counter()
    sigma, p = 1.5, 1.75
    lipschitz = 0.25  # exact for a^{1/sigma}(x) = 0.5 + 0.25 sin x
    family = fam.FracLaplFamily(
        a=lambda x: (0.5 + 0.25 * math.sin(float(x[0]))) ** sigma,
        sigma=sigma,
        dim=1,
    )
    # The small-ball parts are scaled copies of one reference measure; the
    # scaling coupling between the discretized push-forwards moves every atom
    # in place, which is what keeps the ratio bounded all the way down.
    grid = fam.AnnularGrid(r_min=1e-3, r_max=1.0, n_radial=250)
    reference = fam.discretize_kernel(
        fam.KernelFamily(
            density=lambda x, Z: np.linalg.norm(np.atleast_2d(Z), axis=1) ** (-1.0 - sigma),
            dim=1,
        ),
        [0.0],
        grid,
    )
    scaled = fam.LevyItoFamily(
        base=reference,
        maps=lambda x: (
            lambda Z, s=family.split_radius(x): s * np.atleast_2d(Z)
        ),
        dim_out=1,
    )
    make = lambda x: fam.pushforward(scaled, x)
    pairs = fam.sweep_pairs(12, 1, seed=707)
    report = fam.regularity_sweep(make, pairs, p=p, s=1.0)

    assert math.isfinite(report.max_ratio)
    # atom-by-atom coupling: ratio <= L * (p-moment of the reference)^{1/p}
    coupling_ratio = lipschitz * reference.p_moment(p) ** (1.0 / p)
    assert report.max_ratio <= coupling_ratio + 1e-10, (
        f"max ratio {report.max_ratio} above coupling constant {coupling_ratio}"
    )
    # stability over the last decade of separations
    small = [r.ratio for r in report.rows if r.separation <= 1e-2]
    large = [r.ratio for r in report.rows if r.separation > 1e-2]
    assert small and large
    assert max(small) <= 1.5 * max(large) + 1e-12

    # the mid-annulus piece: mass finite, variation quotient under the
    # mean-value constant omega L (1 + sigma/(sigma-1)) for d = 1
    mean_value_constant = 2.0 * 0.25 * (1.0 + sigma / (sigma - 1.0))
    worst = 0.0
    for x, y in pairs:
        mass, ratio = bnd.mutilde_checks(family, x, y)
        assert math.isfinite(mass)
        assert ratio <= mean_value_constant + 1e-9
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"fraclap sweep took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 7 fractional family: PASS (max sweep ratio {report.max_ratio:.4f},"
        f" max annulus quotient {worst:.4f} <= {mean_value_constant}, {elapsed:.1f}s)"
    )


def test_criterion_08_convolution_suite():
    rng = np.random.default_rng(808)
    checked = 0
    for index in range(50):
        dim = 1 if index % 2 == 0 else 2
        n_nodes = 512 if dim == 1 else 64
        u = random_grid_function(rng, dim, n_nodes)
        small = vis.sup_convolution(u, 1e-3)
        mid, achievers = vis.sup_convolution(u, 1e-2, with_achievers=True)
        big = vis.sup_convolution(u, 1e-1)
        # (1) monotone in delta
        assert np.all(small.values <= mid.values + 1e-14)
        assert np.all(mid.values <= big.values + 1e-14)
        # (2) one-sided bounds
        assert np.all(small.values >= u.values - 1e-14)
        assert np.all(vis.inf_convolution(u, 1e-2).values <= u.values + 1e-14)
        # (4) semiconvexity with the stated slack
        delta = 1e-2
        h = mid.spacing
        for ax in range(dim):
            second = np.diff(mid.values, n=2, axis=ax) / h[ax] ** 2
            assert np.all(second >= -2.0 / delta - 1e-8)
        # (5) achieving nodes inside the energy radius
        nodes = u.nodes()
        dist = np.linalg.norm(nodes - nodes[achievers], axis=1)
        assert np.all(dist <= math.sqrt(2.0 * delta * u.sup_norm()) + 1e-12)
        checked += 1
    assert checked == 50
    print("ACCEPTANCE 8 convolution suite: PASS (50 grid functions, d=1 and d=2)")


def test_criterion_09_coupling_inequality():
    rng = np.random.default_rng(909)
    ps = [1.0, 1.5, 2.0]
    results = []
    for index in range(50):
        p = ps[index % 3]
        dim = 1 if index % 4 != 3 else 2
        n_nodes = 192 if dim == 1 else 48
        u = random_grid_function(rng, dim, n_nodes, box=2.0)
        v = random_grid_function(rng, dim, n_nodes, box=2.0)
        spec = vis.PenalizationSpec(
            epsilon=float(rng.uniform(0.05, 0.5)),
            kappa=float(rng.choice([1e-3, 0.1, 0.5])),
            p=p,
        )
        mu = random_measure(rng, dim, max_atoms=12, inner=0.05, outer=0.95, allow_empty=False)
        nu = mu if index % 3 == 0 else random_measure(
            rng, dim, max_atoms=12, inner=0.05, outer=0.95, allow_empty=False
        )
        chk = vis.coupling_inequality_check(u, v, spec, mu, nu, tol=1e-8)
        assert chk.passed, f"config {index}: lhs {chk.lhs} > rhs {chk.rhs}"
        results.append(chk.rhs - chk.lhs)
    print(
        f"ACCEPTANCE 9 coupling inequality: PASS "
        f"(50 configurations, min margin {min(results):.3e})"
    )


def test_criterion_10_basic_idea_experiment():
    start = time.perf_counter()
    eq = vis.EquationSpec(
        lam=1.0,
        f=lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x),
        measures=lambda x: DiscreteMeasure(1, [[0.5 + 0.1 * math.sin(x)]], [1.0]),
    )
    report = vis.basic_idea_experiment(eq, n_nodes=512, epsilons=(1e-1, 1e-2, 1e-3, 1e-4))
    assert report.u_leq_v
    assert report.penalty_decreasing
    assert report.rows[-1].penalty_term <= 1e-3
    # the single-atom translation family is transport-Lipschitz with constant 0.1
    for x, y in ((0.1, 0.4), (1.0, 1.5), (2.0, 2.6)):
        d = tr.distance(eq.measures(x), eq.measures(y), 2.0)
        assert d <= 0.1 * abs(x - y) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 10 doubling experiment: PASS (final penalty "
        f"{report.rows[-1].penalty_term:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_11_performance_2000_atoms():
    rng = np.random.default_rng(1111)
    size, dim = 2000, 3
    X = rng.normal(size=(size, dim))
    Y = rng.normal(size=(size, dim))
    mu = DiscreteMeasure(dim, X, rng.uniform(0.2, 2.0, size))
    nu = DiscreteMeasure(dim, Y, rng.uniform(0.2, 2.0, size))
    start = time.perf_counter()
    rep = tr.solve(mu, nu, tr.CostSpec(2.0))
    elapsed = time.perf_counter() - start
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    assert tr.verify_plan(rep.plan, mu, nu) == []
    assert elapsed < 5.0, f"2000-atom solve took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 11 performance: PASS (2000x2000 solve in {elapsed:.2f}s, "
        f"{rep.iterations} pivots)"
    )
