"""Tests for the reservoir transport solver, duals, and oracles."""

import math

import numpy as np
import pytest

from levyot.measures import DiscreteMeasure, _pow, tv_distance
from levyot.transport import (
    TransportPlan,
    CostSpec,
    DualPotentials,
    brute_force_unit,
    distance,
    dual_value,
    k_support_check,
    solve,
    verify_plan,
)


def test_cost_spec():
    with pytest.raises(ValueError):
        CostSpec(0.5)
    with pytest.raises(ValueError):
        CostSpec(2.5)
    # the effective cost min(|x-y|^p, |x|^p + |y|^p) of one unit atom each
    c = CostSpec(2.0)
    unit = lambda z: DiscreteMeasure(1, [[z]], [1.0])
    assert solve(unit(-0.5), unit(0.5), c).value == pytest.approx(0.5)
    assert solve(unit(0.3), unit(0.4), c).value == pytest.approx(0.01)


def test_solve_one_sided():
    mu = DiscreteMeasure(1, [[1.0]], [1.0])
    empty = DiscreteMeasure.empty(1)
    rep = solve(mu, empty, CostSpec(2.0))
    assert rep.value == pytest.approx(1.0, abs=0)
    assert rep.plan.to_reservoir[0] == 1.0
    assert rep.gap <= 1e-12
    both = solve(empty, empty, CostSpec(1.5))
    assert both.value == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_empty_side_matches_closed_form(dim, p):
    # With one side empty every atom meets the reservoir: no pivots, the plan
    # is the weights, the duals are the reservoir costs |z|^p.
    rng = np.random.default_rng(17)
    empty = DiscreteMeasure.empty(dim)
    for scale in (1e-3, 1.0, 1e8):
        full = DiscreteMeasure(dim, rng.normal(size=(5, dim)), rng.uniform(0.1, 1.0, 5) * scale)
        res = _pow(full.radii, p)
        value = math.fsum((full.weights * res).tolist())
        one_sided = solve(full, empty, CostSpec(p))
        other_sided = solve(empty, full, CostSpec(p))
        assert one_sided.duals.violations(full, empty) == []
        assert other_sided.duals.violations(empty, full) == []
        for rep, flows, duals in (
            (one_sided, one_sided.plan.to_reservoir, one_sided.duals.phi),
            (other_sided, other_sided.plan.from_reservoir, other_sided.duals.psi),
        ):
            assert rep.iterations == 0 and rep.plan.direct_vals.size == 0
            assert np.array_equal(flows, full.weights)
            assert np.array_equal(duals, res)
            assert rep.value == value and rep.gap == 0.0


def _plan_loop(sx, m, n):
    """Reference: the per-node loop that read the plan off the final tree."""
    direct, to_res, from_res = [], np.zeros(m), np.zeros(n)
    for node in range(sx.N):
        f = float(sx.flow[node])
        if node == sx.root or f <= 0.0:
            continue
        par = sx.parent[node]
        i, j = (node, par - sx.m) if node < sx.m else (par, node - sx.m)
        if i < m and j < n:
            direct.append([i, j, f])
        elif i < m:
            to_res[i] += f
        elif j < n:
            from_res[j] += f
    return {"direct": direct, "to_reservoir": to_res.tolist(), "from_reservoir": from_res.tolist()}


def test_plan_extraction_matches_loop_reference(monkeypatch, rng, make_measure, make_unit_measure):
    import levyot.transport as tr

    trees = []
    run = tr._Simplex.run

    def recording_run(self):
        run(self)
        trees.append(self)

    monkeypatch.setattr(tr._Simplex, "run", recording_run)
    cases = [(make_measure(rng, 2, max_atoms=15), make_measure(rng, 2, max_atoms=15)) for _ in range(30)]
    # unit weights give degenerate trees with zero-flow basic arcs
    cases += [(make_unit_measure(rng, 1, 6), make_unit_measure(rng, 1, 6)) for _ in range(30)]
    # above the k-NN warm-start threshold
    cases.append(tuple(DiscreteMeasure(3, rng.normal(size=(k, 3)), rng.uniform(0.2, 2.0, k)) for k in (300, 260)))
    for k, (mu, nu) in enumerate(cases):
        rep = solve(mu, nu, CostSpec((1.0, 1.5, 2.0)[k % 3]))
        plan = rep.plan
        assert plan.to_dict() == _plan_loop(trees.pop(), mu.n_atoms, nu.n_atoms)
        assert plan.direct_rows.dtype == plan.direct_cols.dtype == np.int64


def test_solve_single_pair_direct():
    mu = DiscreteMeasure(1, [[0.3]], [1.0])
    nu = DiscreteMeasure(1, [[0.4]], [1.0])
    rep = solve(mu, nu, CostSpec(1.0))
    assert rep.value == pytest.approx(0.1, abs=1e-15)
    assert rep.plan.direct_vals.sum() == pytest.approx(1.0)


def test_solve_single_pair_through_reservoir():
    # direct cost 1 exceeds 0.25 + 0.25, so all mass meets the origin
    mu = DiscreteMeasure(1, [[-0.5]], [2.0])
    nu = DiscreteMeasure(1, [[0.5]], [1.0])
    rep = solve(mu, nu, CostSpec(2.0))
    assert rep.value == pytest.approx(0.75, abs=1e-15)
    assert rep.plan.direct_vals.size == 0
    assert rep.plan.to_reservoir[0] == pytest.approx(2.0)
    assert rep.plan.from_reservoir[0] == pytest.approx(1.0)
    assert k_support_check(rep.plan, mu, nu, 2.0) == []


def test_distance_examples():
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    nu = DiscreteMeasure(1, [[0.5]], [2.0])
    assert distance(mu, nu, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert distance(mu, mu, 2.0) == 0.0
    assert distance(DiscreteMeasure.empty(2), DiscreteMeasure.empty(2), 1.5) == 0.0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(DiscreteMeasure(1, [[0.5]], [1.0]), DiscreteMeasure(2, [[0.5, 0.0]], [1.0]), CostSpec(2.0))


def test_verify_plan_flags_bad_plans():
    mu = DiscreteMeasure(1, [[0.3], [0.8]], [1.0, 2.0])
    nu = DiscreteMeasure(1, [[0.4]], [1.0])
    rep = solve(mu, nu, CostSpec(1.0))
    assert verify_plan(rep.plan, mu, nu) == []
    # zero out the reservoir column: every mu row sum breaks
    broken = rep.plan
    zeroed = type(broken)(
        n_mu=broken.n_mu,
        n_nu=broken.n_nu,
        direct_rows=broken.direct_rows,
        direct_cols=broken.direct_cols,
        direct_vals=np.zeros_like(broken.direct_vals),
        to_reservoir=np.zeros_like(broken.to_reservoir),
        from_reservoir=np.zeros_like(broken.from_reservoir),
    )
    violations = verify_plan(zeroed, mu, nu)
    assert {v.side for v in violations} == {"mu", "nu"}
    assert len([v for v in violations if v.side == "mu"]) == 2


def test_k_support_reports_hand_built_violation():
    mu = DiscreteMeasure(1, [[-0.5]], [1.0])
    nu = DiscreteMeasure(1, [[0.5]], [1.0])
    rep = solve(mu, nu, CostSpec(2.0))
    bad_plan = type(rep.plan)(
        n_mu=1,
        n_nu=1,
        direct_rows=np.array([0]),
        direct_cols=np.array([0]),
        direct_vals=np.array([1.0]),
        to_reservoir=np.zeros(1),
        from_reservoir=np.zeros(1),
    )
    arcs = k_support_check(bad_plan, mu, nu, 2.0)
    assert arcs and arcs[0][:2] == (0, 0)
    assert arcs[0][2] == pytest.approx(0.5)


def _k_support_loop(plan, mu, nu, p, tol=1e-9, mass_tol=1e-12):
    """Reference: the per-arc loop k_support_check used to run."""
    cost = CostSpec(p)
    res_mu, res_nu = cost.reservoir_cost(mu), cost.reservoir_cost(nu)
    out = []
    for i, j, v in zip(plan.direct_rows, plan.direct_cols, plan.direct_vals):
        if v <= mass_tol:
            continue
        direct = float(_pow(np.linalg.norm(mu.positions[i] - nu.positions[j]), p))
        if direct > float(res_mu[i] + res_nu[j]) + tol:
            out.append((int(i), int(j)))
    return out


def test_k_support_matches_loop_reference(rng, make_measure):
    mu = DiscreteMeasure(1, [[-0.5]], [1.0])
    nu = DiscreteMeasure(1, [[0.5]], [1.0])
    hand_built = TransportPlan(1, 1, np.array([0]), np.array([0]), np.array([1.0]), np.zeros(1), np.zeros(1))
    cases = [(hand_built, mu, nu, 2.0)]
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        mu = make_measure(rng, dim, max_atoms=12, allow_empty=False)
        nu = make_measure(rng, dim, max_atoms=12, allow_empty=False)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        cases.append((solve(mu, nu, CostSpec(p)).plan, mu, nu, p))
        # arbitrary arcs, some carrying no more than the mass tolerance
        k = int(rng.integers(0, 20))
        vals = rng.choice([0.0, 1e-13, 0.5, 2.0], size=k)
        arcs = TransportPlan(
            mu.n_atoms, nu.n_atoms, rng.integers(0, mu.n_atoms, k), rng.integers(0, nu.n_atoms, k),
            vals, np.zeros(mu.n_atoms), np.zeros(nu.n_atoms),
        )
        cases.append((arcs, mu, nu, p))
    flagged = 0
    for plan, mu, nu, p in cases:
        got = [(i, j) for i, j, _ in k_support_check(plan, mu, nu, p)]
        assert got == _k_support_loop(plan, mu, nu, p)
        flagged += len(got)
    assert flagged > 0


@pytest.mark.parametrize("nu_pos, nu_w", [([[-1e160, 1.0]], [2.0]), ([], [])], ids=["pair", "empty-side"])
def test_solve_rejects_overflowing_costs(nu_pos, nu_w):
    # |z|^2 overflows already in the constructor's radii
    with pytest.warns(RuntimeWarning, match="overflow"):
        mu = DiscreteMeasure(2, [[1e160, 0.0], [0.0, 3.0]], [1.0, 1.0])
        nu = DiscreteMeasure(2, nu_pos, nu_w)
    for a, b in ((mu, nu), (nu, mu)):
        with pytest.raises(ValueError, match="overflow"):
            solve(a, b, CostSpec(2.0))
    # finite radii and reservoir costs, but |x - y|^2 overflows
    far = DiscreteMeasure(1, [[1e154]], [1.0])
    with pytest.raises(ValueError, match="overflow"):
        solve(far, DiscreteMeasure(1, [[-1e154]], [1.0]), CostSpec(2.0))


def test_dual_value_examples():
    mu = DiscreteMeasure(1, [[0.3]], [1.0])
    nu = DiscreteMeasure(1, [[0.4]], [1.0])
    rep = solve(mu, nu, CostSpec(1.0))
    assert dual_value(rep.duals, mu, nu) == pytest.approx(0.1, abs=1e-12)
    zero = DualPotentials(phi=np.zeros(1), psi=np.zeros(1), p=1.0)
    assert dual_value(zero, mu, nu) == 0.0
    bad = DualPotentials(phi=np.array([0.5]), psi=np.zeros(1), p=1.0)
    with pytest.raises(ValueError, match="phi"):
        dual_value(bad, mu, nu)


def test_weak_duality_fuzz(rng, make_measure):
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        mu = make_measure(rng, dim, max_atoms=12, allow_empty=False)
        nu = make_measure(rng, dim, max_atoms=12, allow_empty=False)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        rep = solve(mu, nu, CostSpec(p))
        cost = CostSpec(p)
        res_mu = cost.reservoir_cost(mu)
        res_nu = cost.reservoir_cost(nu)
        phi = res_mu - rng.uniform(0.0, 2.0, mu.n_atoms)
        pair = cost.pair_matrix(mu, nu)
        psi = np.minimum(res_nu, (pair - phi[:, None]).min(axis=0))
        feasible = DualPotentials(phi=phi, psi=psi, p=p)
        assert not feasible.violations(mu, nu)
        assert dual_value(feasible, mu, nu) <= rep.value + 1e-9


def test_oracle_agreement(rng, make_unit_measure):
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        mu = make_unit_measure(rng, dim)
        nu = make_unit_measure(rng, dim)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        rep = solve(mu, nu, CostSpec(p))
        assert abs(rep.value - brute_force_unit(mu, nu, p)) <= 1e-10


def test_brute_force_guards():
    seven = DiscreteMeasure(1, np.linspace(0.1, 0.7, 7)[:, None], np.ones(7))
    one = DiscreteMeasure(1, [[0.5]], [1.0])
    with pytest.raises(ValueError):
        brute_force_unit(seven, one, 1.0)
    heavy = DiscreteMeasure(1, [[0.5]], [2.0])
    with pytest.raises(ValueError):
        brute_force_unit(heavy, one, 1.0)
    # two atoms against nothing: both pay their way to the origin
    two = DiscreteMeasure(1, [[0.5], [-0.25]], [1.0, 1.0])
    assert brute_force_unit(two, DiscreteMeasure.empty(1), 2.0) == pytest.approx(0.3125)
    assert brute_force_unit(two, two, 1.5) == 0.0


def test_strong_duality_random(rng, make_measure):
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        mu = make_measure(rng, dim)
        nu = make_measure(rng, dim)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        rep = solve(mu, nu, CostSpec(p))
        assert rep.gap <= 1e-9 * (1.0 + rep.value)
        assert not rep.duals.violations(mu, nu)
        assert verify_plan(rep.plan, mu, nu) == []


def test_metric_properties_random(rng, make_measure):
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        m1 = make_measure(rng, dim, max_atoms=15)
        m2 = make_measure(rng, dim, max_atoms=15)
        m3 = make_measure(rng, dim, max_atoms=15)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        d12 = distance(m1, m2, p)
        assert abs(d12 - distance(m2, m1, p)) <= 1e-10
        assert distance(m1, m1, p) == 0.0
        assert distance(m1, m3, p) <= d12 + distance(m2, m3, p) + 1e-8
        assert (d12 == 0.0) == (tv_distance(m1, m2) == 0.0)


def test_mass_removal_monotonicity(rng, make_measure):
    from levyot.measures import restrict_outside

    for _ in range(20):
        mu = make_measure(rng, 2, max_atoms=20, allow_empty=False)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        r = float(rng.uniform(0.1, 1.5))
        trimmed = restrict_outside(mu, r)
        mask = mu.radii < r
        budget = float(np.sum(mu.weights[mask] * mu.radii[mask] ** p))
        assert distance(mu, trimmed, p) ** p <= budget + 1e-10


def test_determinism():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(30, 2))
    Y = rng.normal(size=(25, 2))
    mu = DiscreteMeasure(2, X, rng.uniform(0.1, 2.0, 30))
    nu = DiscreteMeasure(2, Y, rng.uniform(0.1, 2.0, 25))
    a = solve(mu, nu, CostSpec(1.5))
    b = solve(mu, nu, CostSpec(1.5))
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert np.array_equal(a.plan.direct_rows, b.plan.direct_rows)
    assert np.array_equal(a.plan.direct_vals, b.plan.direct_vals)
    assert np.array_equal(a.duals.phi, b.duals.phi)
