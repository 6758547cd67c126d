"""Tests for the reservoir transport solver, duals, and oracles."""

import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levyot.families import build_family
from levyot.measures import DiscreteMeasure, _pow, decompose, restrict_outside, tv_distance
from levyot.transport import (
    TransportPlan,
    CostSpec,
    _cost_scale,
    _monotone_merge,
    _ray_ids,
    _ray_keys,
    _solve_rays,
    _solve_simplex,
    DualPotentials,
    brute_force_unit,
    distance,
    dual_value,
    k_support_check,
    solve,
    verify_plan,
)

from levyot.suites import random_measure
from test_families import _random_line_measure


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


def _reservoir_lp(mu, nu, p):
    """The reservoir LP solved by HiGHS, as an oracle independent of ``solve``.

    Variables are the arcs x_i -> y_j, x_i -> 0 and 0 -> y_j; each atom's
    arcs carry its weight, and mass at the origin is free.
    """
    from scipy.optimize import linprog

    m, n = mu.n_atoms, nu.n_atoms
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.concatenate([np.linalg.norm(diff, axis=2).ravel() ** p, mu.radii**p, nu.radii**p])
    arcs = np.arange(m * n)
    A = np.zeros((m + n, m * n + m + n))
    A[arcs // n, arcs] = A[m + arcs % n, arcs] = 1.0
    A[np.arange(m + n), m * n + np.arange(m + n)] = 1.0
    res = linprog(cost, A_eq=A, b_eq=np.concatenate([mu.weights, nu.weights]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def _weighted_pairs():
    """40 seeded random pairs (d 1-3, p 1, 1.5, 2), then kernel-grid hat pairs that take the ray path."""
    rng = np.random.default_rng(6060)
    for k in range(40):
        dim, p = 1 + k % 3, (1.0, 1.5, 2.0)[k // 3 % 3]
        mu, nu = (random_measure(rng, dim, allow_empty=False) for _ in "ab")
        yield mu, nu, p, None
    for dim in (2, 3):
        runtime = build_family({"type": "kernel", "dim": dim, "sigma": 0.5,
                                "grid": {"r_min": 1e-3, "r_max": 2.0, "n_radial": 5, "n_angular": 6}})
        for x, y in (([0.1], [0.4]), ([1.0], [2.5]), ([-0.7], [0.2])):
            mu, nu = (decompose(runtime.make_measure(np.array(z * dim))).hat for z in (x, y))
            for p in (1.0, 1.5, 2.0):
                yield mu, nu, p, "rays"


def test_weighted_instances_match_the_lp():
    for mu, nu, p, path in _weighted_pairs():
        lp = _reservoir_lp(mu, nu, p)
        rep = solve(mu, nu, CostSpec(p))
        assert path is None or rep.path == path
        assert abs(rep.value - lp) <= 1e-9 * max(1.0, abs(lp)), (mu, nu, p, rep.value, lp)


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
        rep = tr._solve_simplex(mu, nu, CostSpec((1.0, 1.5, 2.0)[k % 3]))
        plan = rep.plan
        assert plan.to_dict() == _plan_loop(trees.pop(), mu.n_atoms, nu.n_atoms)
        assert plan.direct_rows.dtype == plan.direct_cols.dtype == np.int64


def _dense_cost(mu, nu, p):
    """Reference: the dense (m+1) x (n+1) cost matrix of the reservoir
    reduction, with 0 at the corner."""
    cost = CostSpec(p)
    m, n = mu.n_atoms, nu.n_atoms
    dense = np.zeros((m + 1, n + 1))
    dense[:m, :n] = cost.pair_matrix(mu, nu)
    dense[:m, n] = cost.reservoir_cost(mu)
    dense[m, :n] = cost.reservoir_cost(nu)
    return dense


def _initial_trees(monkeypatch, cases):
    """The simplex of each (mu, nu, p) case as built, before any pivot, with
    its dense cost matrix as ``dense``; d = 1 cases take the simplex too."""
    import levyot.transport as tr

    trees = []
    monkeypatch.setattr(tr._Simplex, "run", lambda self: trees.append(self))
    for mu, nu, p in cases:
        tr._solve_simplex(mu, nu, CostSpec(p))
        trees[-1].dense = _dense_cost(mu, nu, p)
    return trees


def _star_reference(sx):
    """Reference: the hand-built star that was the only initial tree.

    Root (virtual source) feeds every sink; real sources hang off the virtual
    sink; preorder root, real sinks, virtual sink, real sources.
    """
    m, n, N = sx.m, sx.n, sx.N
    cost, supply, demand = sx.dense, sx.supply, sx.demand
    parent = np.full(N, -1, dtype=np.int64)
    flow = np.zeros(N)
    sinks = np.arange(m, N)
    parent[sinks] = sx.root
    flow[m : N - 1] = demand[: n - 1]
    flow[sx.vsink] = 0.0
    parent[: m - 1] = sx.vsink
    flow[: m - 1] = supply[: m - 1]
    u, v = np.zeros(m), np.zeros(n)
    v[:] = cost[m - 1, :]
    u[: m - 1] = cost[: m - 1, n - 1] - v[n - 1]
    u[sx.root] = 0.0
    # the simplex keeps one node potential, pot = (u, -v); its sink entries
    # are root potential minus cost, so a zero cost gives +0.0, not -0.0
    pot = np.concatenate([u, 0.0 - v])
    order = np.concatenate([[sx.root], sinks[:-1], [sx.vsink], np.arange(m - 1)]).astype(np.int64)
    pos = np.empty(N, dtype=np.int64)
    pos[order] = np.arange(N)
    size = np.ones(N, dtype=np.int64)
    size[sx.root] = N
    size[sx.vsink] = m
    return {"order": order, "pos": pos, "size": size.tolist(), "parent": parent.tolist(),
            "flow": flow.tolist(), "u": u, "w": pot[m:], "pot": pot}


def _assert_tree_is(sx, ref):
    for key in ("order", "pos", "u", "w", "pot"):
        assert getattr(sx, key).dtype == ref[key].dtype, key
        assert getattr(sx, key).tobytes() == ref[key].tobytes(), key
    for key in ("size", "parent", "flow"):
        assert getattr(sx, key) == ref[key], key


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_empty_forest_builds_the_star(monkeypatch, make_measure, dim, p):
    rng = np.random.default_rng(dim)
    cases = [(make_measure(rng, dim), make_measure(rng, dim), p) for _ in range(6)]
    cases.append((DiscreteMeasure.empty(dim), make_measure(rng, dim, allow_empty=False), p))
    for sx in _initial_trees(monkeypatch, cases):
        sx._build_tree([], np.concatenate([sx.supply, sx.demand]).tolist())
        _assert_tree_is(sx, _star_reference(sx))
    # above the k-NN threshold, clouds without coincident atoms start from the star itself
    big = tuple(DiscreteMeasure(dim, rng.normal(size=(k, dim)), rng.uniform(0.2, 2.0, k)) for k in (300, 260))
    (sx,) = _initial_trees(monkeypatch, [(*big, p)])
    assert sx.warm is not None
    _assert_tree_is(sx, _star_reference(sx))


def _kernel_pair():
    """A kernel family at two points, 40 shells x 8 directions in d = 2: 320
    atoms a side, above the k-NN threshold, and every atom of one measure has
    a coincident partner in the other."""
    runtime = build_family({"type": "kernel", "dim": 2, "sigma": 0.5, "params": {"base": 1.0, "amplitude": 0.5},
                            "grid": {"r_min": 1e-3, "r_max": 1.0, "n_radial": 40, "n_angular": 8}})
    return runtime.make_measure([0.3, -0.2]), runtime.make_measure([0.31, -0.17])


def _partners(mu, nu):
    """nu index of each mu atom's coincident partner."""
    near = np.linalg.norm(mu.positions[:, None, :] - nu.positions[None, :, :], axis=2)
    j = np.argmin(near, axis=1)
    assert near[np.arange(mu.n_atoms), j].max() <= 1e-14 and np.unique(j).size == nu.n_atoms == mu.n_atoms
    return j


def test_coincident_atoms_start_matched_in_place(monkeypatch):
    mu, nu = _kernel_pair()
    partner = _partners(mu, nu)
    for sx in _initial_trees(monkeypatch, [(mu, nu, p) for p in (1.0, 1.5, 2.0)]):
        assert sx.warm is not None
        _check_initial_tree(sx)
        real = [(node, sx.parent[node]) for node in range(sx.N)
                if node not in (sx.root, sx.vsink) and sx.parent[node] not in (sx.root, sx.vsink)]
        arcs = {(min(a, b), max(a, b) - sx.m): sx.flow[a] for a, b in real}
        # one real arc per component: no node has two
        ends = [i for i, _ in arcs] + [sx.m + j for _, j in arcs]
        assert len(set(ends)) == len(ends)
        assert sorted(arcs) == list(enumerate(partner.tolist()))
        for (i, j), f in arcs.items():
            assert f == min(mu.weights[i], nu.weights[j])


def _in_place_value(mu, nu, p):
    """Cost of the plan that keeps min(w, w') at each coincident pair and
    trades the rest with the reservoir."""
    partner = _partners(mu, nu)
    w, v = mu.weights, nu.weights[partner]
    kept = np.minimum(w, v)
    cost = CostSpec(p)
    pair = _pow(np.linalg.norm(mu.positions - nu.positions[partner], axis=1), p)
    return math.fsum(np.concatenate([kept * pair, (w - kept) * cost.reservoir_cost(mu),
                                     (v - kept) * cost.reservoir_cost(nu)[partner]]).tolist())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_coincident_start_solves_to_the_star_optimum(monkeypatch, p):
    import levyot.transport as tr

    mu, nu = _kernel_pair()
    rep = _solve_simplex(mu, nu, CostSpec(p))
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    assert verify_plan(rep.plan, mu, nu) == []
    assert k_support_check(rep.plan, mu, nu, p) == []
    if p == 1.0:
        # the in-place plan is optimal at p = 1: no pivot is needed
        assert rep.iterations == 0
        assert rep.value == pytest.approx(_in_place_value(mu, nu, p), rel=1e-12, abs=0.0)
    monkeypatch.setattr(tr._Simplex, "_greedy_forest", lambda self, *args: [])
    star = _solve_simplex(mu, nu, CostSpec(p))
    assert star.iterations > rep.iterations
    assert rep.value == pytest.approx(star.value, rel=1e-12, abs=0.0)


def _clouds(rng, sizes, dim=3):
    """Normal atom clouds with weights in [0.2, 2]; 300x260 is above the k-NN threshold."""
    return tuple(DiscreteMeasure(dim, rng.normal(size=(k, dim)), rng.uniform(0.2, 2.0, k)) for k in sizes)


def _check_refill(sx):
    """``_refill`` against the brute-force reduced costs; returns the number
    of eligible arcs and the pool size."""
    pool, cost, theta = sx._refill()
    red = ((sx.dense - sx.u[:, None]) + sx.w).reshape(-1)
    # the pool carries the bits of its arcs' costs
    assert cost.tobytes() == sx.dense.reshape(-1)[pool].tobytes()
    eligible = np.flatnonzero(red < -sx.tol)
    assert (pool.size == 0) == (eligible.size == 0)
    if pool.size:
        assert pool.dtype == np.int64 and np.unique(pool).size == pool.size <= sx.refill_size
        assert theta >= -sx.tol and np.all(red[pool] < theta)
        assert np.array_equal(pool, pool[np.lexsort((pool, red[pool]))])
        if eligible.size <= sx.refill_size:
            assert np.isin(eligible, pool).all()
        left_out = np.ones(red.size, dtype=bool)
        left_out[pool] = False
        if left_out.any():
            assert red[left_out].min() >= red[pool].max()
    return eligible.size, pool.size


def test_refill_contract(monkeypatch, rng):
    cases = [(*_clouds(rng, (300, 260)), 2.0), (*_clouds(rng, (7, 5), dim=2), 1.0)]
    sx, small = _initial_trees(monkeypatch, cases)
    monkeypatch.undo()
    assert sx.warm_cost.tobytes() == sx.dense.reshape(-1)[sx.warm].tobytes()
    sizes = {}
    # above the k-NN threshold: at the start, a few hundred pivots in, after
    # the warm pool ran dry, and at the optimum
    sizes["start"] = _check_refill(sx)
    full = sx.bland_after
    sx.bland_after = 300
    sx._drain_pool(sx.warm, sx.warm_cost, -sx.tol)
    sizes["mid"] = _check_refill(sx)
    sx.bland_after = math.inf
    sx._drain_pool(sx.warm, sx.warm_cost, -sx.tol)
    sizes["warm done"] = _check_refill(sx)
    sx.bland_after = full
    sx.run()
    sizes["optimal"] = _check_refill(sx)
    # a small instance from the star: the pool can hold every arc
    small._build_tree([], np.concatenate([small.supply, small.demand]).tolist())
    sizes["small"] = _check_refill(small)
    small.run()
    sizes["small optimal"] = _check_refill(small)

    # every regime is hit: trimmed to capacity, padded with near-eligible
    # arcs, the whole small matrix, and empty at the optimum
    assert sizes["start"][0] > sx.refill_size == sizes["start"][1]
    assert 0 < sizes["warm done"][0] < sizes["warm done"][1]
    assert 0 < sizes["small"][0] < sizes["small"][1] == small.dense.size
    assert sizes["optimal"] == sizes["small optimal"] == (0, 0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_node_potentials_follow_the_tree(monkeypatch, rng, p):
    (sx,) = _initial_trees(monkeypatch, [(*_clouds(rng, (300, 260)), p)])
    sx.bland_after = 300
    sx._drain_pool(sx.warm, sx.warm_cost, -sx.tol)
    assert sx.iterations > 300
    bound = 1e-12 * _cost_scale(sx.dense)
    pot = sx.pot.copy()
    # every basic arc prices at zero: c_ij - pot[i] + pot[m + j], pot = (u, -v)
    node = np.flatnonzero(np.arange(sx.N) != sx.root)
    par = np.array(sx.parent)[node]
    src, snk = np.where(node < sx.m, node, par), np.where(node < sx.m, par, node)
    assert np.abs(sx.dense[src, snk - sx.m] - pot[src] + pot[snk]).max() <= bound
    # the tree carries each basic arc's cost bit for bit
    assert np.array(sx.arc_cost)[node].tobytes() == sx.dense[src, snk - sx.m].tobytes()
    # the incremental shifts agree with a fresh restore, and u, w stay views
    sx._restore_potentials()
    assert np.abs(pot - sx.pot).max() <= bound
    assert sx.u.base is sx.pot and sx.w.base is sx.pot


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_bland_fallback_certifies_the_optimum(monkeypatch, rng, p):
    (sx,) = _initial_trees(monkeypatch, [(*_clouds(rng, (200, 150), dim=2), p)])
    monkeypatch.undo()
    sx.costs.step = 37  # the scans read costs over six blocks
    sx.bland_after = 5
    sx.run()
    assert sx.iterations > 5 and sx._bland_arc() is None
    assert ((sx.dense - sx.u[:, None]) + sx.w).min() >= -sx.tol
    node = np.flatnonzero(np.arange(sx.N) != sx.root)
    par = np.array(sx.parent)[node]
    src, snk = np.where(node < sx.m, node, par), np.where(node < sx.m, par, node)
    assert np.array(sx.arc_cost)[node].tobytes() == sx.dense[src, snk - sx.m].tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sizes", [(300, 260), (400, 400)])
def test_full_scans_fill_the_pool_and_certify(monkeypatch, sizes, p):
    import levyot.transport as tr

    scans = []
    refill = tr._Simplex._refill

    def counting_refill(self):
        pool, cost, theta = refill(self)
        scans.append(pool.size)
        return pool, cost, theta

    monkeypatch.setattr(tr._Simplex, "_refill", counting_refill)
    mu, nu = _clouds(np.random.default_rng(sum(sizes)), sizes)
    rep = solve(mu, nu, CostSpec(p))
    # the near-eligible padding catches the end game; the last scan certifies
    assert len(scans) <= 4 and scans[-1] == 0
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    assert verify_plan(rep.plan, mu, nu) == []


def test_warm_pool_is_the_mutual_neighbour_arcs(monkeypatch, rng):
    mu, nu = _clouds(rng, (300, 260))
    (sx,) = _initial_trees(monkeypatch, [(mu, nu, 2.0)])
    m, n = mu.n_atoms, nu.n_atoms
    near = np.argsort(sx.dense[:m, :n], axis=1)[:, :32]
    back = np.argsort(sx.dense[:m, :n], axis=0)[:32, :]
    want = np.unique(np.concatenate([
        (np.arange(m)[:, None] * (n + 1) + near).ravel(),
        (back * (n + 1) + np.arange(n)[None, :]).ravel(),
        m * (n + 1) + np.arange(n + 1),  # the reservoir row
        np.arange(m) * (n + 1) + n,  # the reservoir column
    ]))
    assert sx.warm.dtype == np.int64 and np.array_equal(sx.warm, want)


def _drain_reference(sx, pool, cost, theta):
    """Reference: ``_drain_pool``'s candidate-list pricing written out plainly.

    Each arc is priced from its flat index; candidates are priced afresh at
    the start of each minor round, and each round sorts them all.  Returns
    the number of minor rounds after each major pass.
    """
    m, n, tol, pot = sx.m, sx.n, sx.tol, sx.pot
    minors = []

    def price(k):
        return cost[k] - pot[pool[k] // n] + pot[m + pool[k] % n]

    while sx.iterations <= sx.bland_after:
        red = price(np.arange(pool.size))
        cand = np.flatnonzero(red < -tol)
        if cand.size == 0:
            break
        keep = red < theta
        if 8 * cand.size < pool.size and 8 * np.count_nonzero(keep) < pool.size:
            pool, cost = pool[keep], cost[keep]
            cand = np.flatnonzero(red[keep] < -tol)
        eligible = cand.size
        minors.append(0)
        while sx.iterations <= sx.bland_after:
            vals = price(cand)
            cand, vals = cand[vals < -tol], vals[vals < -tol]
            if 8 * cand.size < eligible:
                break
            minors[-1] += 1
            for k in cand[np.lexsort((pool[cand], vals))][:128]:
                i, j = divmod(int(pool[k]), n)
                if cost[k] - pot[i] + pot[m + j] < -tol:
                    sx._pivot(i, j, float(cost[k]))
            if eligible <= 128:  # one round took the whole list
                break
    return minors


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sizes", [(300, 260), (600, 600)])
def test_candidate_list_pricing(monkeypatch, sizes, p):
    import copy

    import levyot.transport as tr

    entered = {"solver": [], "reference": []}
    log = entered["solver"]
    minors = []
    pivot, drain = tr._Simplex._pivot, tr._Simplex._drain_pool

    def checked_pivot(self, i, j, cost):
        # every entered arc is eligible against the potentials at entry
        assert cost - self.pot[i] + self.pot[self.m + j] < -self.tol
        log.append((i, j))
        pivot(self, i, j, cost)

    def compared_drain(self, pool, pool_cost, theta):
        nonlocal log
        ref = copy.deepcopy(self)
        log = entered["reference"]
        minors.extend(_drain_reference(ref, pool, pool_cost, theta))
        log = entered["solver"]
        drain(self, pool, pool_cost, theta)
        assert entered["solver"] == entered["reference"]
        assert self.iterations == ref.iterations and self.pot.tobytes() == ref.pot.tobytes()

    monkeypatch.setattr(tr._Simplex, "_pivot", checked_pivot)
    monkeypatch.setattr(tr._Simplex, "_drain_pool", compared_drain)
    mu, nu = _clouds(np.random.default_rng(sum(sizes)), sizes)
    rep = solve(mu, nu, CostSpec(p))
    assert len(entered["solver"]) == rep.iterations > 0
    # a minor round follows every major pass that finds an eligible arc, and
    # some major passes are followed by several: the candidate list saves them
    assert min(minors) >= 1 and sum(minors) > len(minors)
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    plan = rep.plan
    dense = _dense_cost(mu, nu, p)
    terms = np.concatenate([dense[plan.direct_rows, plan.direct_cols] * plan.direct_vals,
                            dense[:-1, -1] * plan.to_reservoir, dense[-1, :-1] * plan.from_reservoir])
    assert rep.value == pytest.approx(math.fsum(terms.tolist()), rel=1e-12, abs=0.0)
    assert verify_plan(plan, mu, nu) == []


def _assert_tree_buffers(sx):
    """The spanning tree's preorder invariants, read through the NumPy views,
    and the views still on the simplex's own buffers."""
    N, root = sx.N, sx.root
    order, pos = sx.order, sx.pos
    size, parent = np.array(sx.size), np.array(sx.parent)
    assert np.array_equal(np.sort(order), np.arange(N))
    assert np.array_equal(pos[order], np.arange(N))
    assert order[0] == root and parent[root] == -1 and size[root] == N
    # sizes count each subtree, and each node sits after its parent inside the
    # parent's segment: so pos[v] : pos[v] + size[v] is exactly v's subtree
    node = np.flatnonzero(np.arange(N) != root)
    par = parent[node]
    assert np.array_equal(np.bincount(par, weights=size[node], minlength=N) + 1, size)
    assert np.all(pos[par] < pos[node])
    assert np.all(pos[node] + size[node] <= pos[par] + size[par])
    for view, buf in ((sx.order, sx._order_a), (sx.pos, sx._pos_a), (sx.pot, sx._pot_a),
                      (sx.u, sx._pot_a), (sx.w, sx._pot_a)):
        assert np.shares_memory(view, buf)


@pytest.mark.parametrize("sizes", [(120, 100), (300, 260)])
def test_tree_invariants_hold_after_every_pivot(monkeypatch, sizes):
    import copy

    import levyot.transport as tr

    # 120 x 100 is below the k-NN threshold, 300 x 260 above it
    mu, nu = _clouds(np.random.default_rng(sum(sizes)), sizes)
    (sx,) = _initial_trees(monkeypatch, [(mu, nu, 2.0)])
    monkeypatch.undo()
    assert (sx.warm is None) == (sizes == (120, 100))
    _assert_tree_buffers(sx)
    pivot = tr._Simplex._pivot
    checked = []

    def checked_pivot(self, i, j, cost):
        pivot(self, i, j, cost)
        _assert_tree_buffers(self)
        checked.append(self)

    monkeypatch.setattr(tr._Simplex, "_pivot", checked_pivot)
    # a copy pivots on its own buffers and leaves the original as it was
    state = (sx.order.tobytes(), sx.pos.tobytes(), sx.pot.tobytes(), sx.size[:], sx.parent[:], sx.flow[:])
    ref = copy.deepcopy(sx)
    _assert_tree_buffers(ref)
    assert not np.shares_memory(ref.pot, sx._pot_a) and not np.shares_memory(ref.order, sx._order_a)
    ref.run()
    assert ref.iterations > 0 and checked.count(ref) == ref.iterations
    assert state == (sx.order.tobytes(), sx.pos.tobytes(), sx.pot.tobytes(), sx.size, sx.parent, sx.flow)
    sx.run()
    assert checked.count(sx) == sx.iterations == ref.iterations
    assert sx.order.tobytes() == ref.order.tobytes() and sx.pot.tobytes() == ref.pot.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_block_costs_match_the_dense_matrix_bit_for_bit(dim, p):
    from levyot.transport import _ReservoirCost

    rng = np.random.default_rng(dim)

    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    # m = 32 puts the reservoir row in the stride-16 sample, m = 45 leaves
    # it out; 300 x 260 takes two blocks of the default size
    for m, n in ((32, 45), (45, 32), (1, 7), (0, 5), (6, 0), (300, 260)):
        # coordinates across six orders of magnitude, a scale per atom
        mu, nu = (
            DiscreteMeasure(dim, rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1)), rng.uniform(0.2, 2, k))
            for k in (m, n)
        )
        spec = CostSpec(p)
        dense = _dense_cost(mu, nu, p)
        costs = _ReservoirCost(spec, mu, nu)
        # the reservoir column and row, and +0.0 at the corner
        assert same(dense[:m, n], spec.reservoir_cost(mu)) and same(dense[m, :n], spec.reservoir_cost(nu))
        assert same(costs.rows(m, m + 1), np.append(spec.reservoir_cost(nu), 0.0)[None, :])
        for i in range(m + 1):
            assert same(costs.rows(i, i + 1), dense[i : i + 1])
        assert same(costs.rows(0, m + 1, 16), dense[::16])
        # the sample as a scan walks it, a few stride-16 rows at a time
        walked = [costs.rows(r0, min(r0 + 32, m + 1), 16) for r0 in range(0, m + 1, 32)]
        assert same(np.concatenate(walked), dense[::16])
        for step in (costs.step, 1, 7):
            costs.step = step
            starts, blocks = zip(*costs.blocks())
            assert list(starts) == list(range(0, m + 1, step))
            assert same(np.concatenate(blocks), dense)


def test_knn_solve_peaks_below_half_a_dense_cost_matrix():
    import tracemalloc

    # 2000 atoms a side, above the k-NN threshold.  mu lies in the positive
    # octant and nu in the negative one, but for 40 atoms next to mu's: at
    # p = 2 only arcs with x.y > 0 beat the reservoir, so the solve pivots
    # a few hundred times, and tracing stays quick.
    k = 2000
    rng = np.random.default_rng(k)
    x = np.abs(rng.normal(size=(k, 3)))
    y = -np.abs(rng.normal(size=(k, 3)))
    y[:40] = x[:40] + 0.01 * rng.normal(size=(40, 3))
    mu, nu = DiscreteMeasure(3, x, rng.uniform(0.2, 2.0, k)), DiscreteMeasure(3, y, rng.uniform(0.2, 2.0, k))
    tracemalloc.start()
    try:
        rep = solve(mu, nu, CostSpec(2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations > 0 and rep.gap <= 1e-9 * (1.0 + rep.value)
    assert peak < 0.5 * (k + 1) * (k + 1) * 8


def _check_initial_tree(sx):
    """Parent, preorder, positions and sizes agree; flows are nonnegative and
    meet every node's supply or demand to 1e-12 relative."""
    N, m = sx.N, sx.m
    order, pos, size, parent, flow = sx.order.tolist(), sx.pos.tolist(), sx.size, sx.parent, sx.flow
    assert sorted(order) == list(range(N)) and order[0] == sx.root and parent[sx.root] == -1
    assert all(pos[node] == k for k, node in enumerate(order))
    below = [1] * N
    for node in order[:0:-1]:
        par = parent[node]
        assert (node < m) != (par < m), "arcs join a source and a sink"
        assert pos[par] < pos[node] < pos[par] + size[par]
        below[par] += below[node]
    assert below == size
    assert min(flow) >= 0.0
    through = [0.0] * N
    for node in order[1:]:
        through[node] += flow[node]
        through[parent[node]] += flow[node]
    target = np.concatenate([sx.supply, sx.demand])
    assert np.all(np.abs(np.array(through) - target) <= 1e-12 * target)


def test_greedy_basis_on_unit_weights(monkeypatch, rng, make_unit_measure):
    cases = [(make_unit_measure(rng, dim), make_unit_measure(rng, dim), p)
             for p in (1.0, 1.5, 2.0) for dim in (1, 2, 3) for _ in range(7)]
    exhausted_both = 0
    for sx in _initial_trees(monkeypatch, cases):
        _check_initial_tree(sx)
        # an arc that exhausts both ends leaves a component with no mass left,
        # hung under the reservoir by an attach arc of flow exactly 0
        exhausted_both += sum(sx.flow[node] == 0.0 for node in range(sx.N) if node not in (sx.root, sx.vsink))
    assert exhausted_both > 0


def test_greedy_basis_on_equal_measures(monkeypatch, rng, make_measure):
    cases = [(mu, mu, p) for p in (1.0, 1.5, 2.0)
             for mu in (make_measure(rng, int(rng.integers(1, 4)), allow_empty=False) for _ in range(10))]
    for sx in _initial_trees(monkeypatch, cases):
        _check_initial_tree(sx)
    monkeypatch.undo()
    for mu, _, p in cases:
        rep = solve(mu, mu, CostSpec(p))
        assert rep.value == 0.0 and rep.distance == 0.0 and rep.gap == 0.0


def test_greedy_basis_with_one_empty_side(monkeypatch, rng, make_measure):
    full = make_measure(rng, 2, allow_empty=False)
    empty = DiscreteMeasure.empty(2)
    cases = [(full, empty, 2.0), (empty, full, 1.0), (empty, empty, 1.5)]
    for sx in _initial_trees(monkeypatch, cases):
        _check_initial_tree(sx)
    monkeypatch.undo()
    for mu, nu, p in cases:
        assert solve(mu, nu, CostSpec(p)).iterations == 0


def test_greedy_basis_on_tied_distances(monkeypatch):
    # two interleaved lattices: every atom has several partners at one distance
    grid = np.array([[a, b] for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)], dtype=float)
    mu = DiscreteMeasure(2, grid * 0.25, np.ones(len(grid)))
    nu = DiscreteMeasure(2, grid * 0.25 + 0.125, np.full(len(grid), 2.0))
    cases = [(mu, nu, p) for p in (1.0, 1.5, 2.0)] + [(nu, mu, 2.0)]
    for sx in _initial_trees(monkeypatch, cases):
        _check_initial_tree(sx)
    monkeypatch.undo()
    for mu, nu, p in cases:
        rep = solve(mu, nu, CostSpec(p))
        assert rep.gap <= 1e-9 * (1.0 + rep.value)
        assert verify_plan(rep.plan, mu, nu) == []
        assert k_support_check(rep.plan, mu, nu, p) == []


# Coordinates on a coarse lattice make tied distances likely; free floats
# away from 0 cover the rest.
_COORD = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3))
_P = st.sampled_from([1.0, 1.5, 2.0])


@st.composite
def _instances(draw, max_atoms, unit):
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[_COORD] * dim).filter(any)
    sides = []
    for _ in range(2):
        sites = draw(st.lists(point, max_size=max_atoms, unique=True))
        weights = [1.0] * len(sites) if unit else draw(
            st.lists(st.floats(0.1, 3.0), min_size=len(sites), max_size=len(sites))
        )
        sides.append(DiscreteMeasure(dim, np.array(sites, dtype=float).reshape(-1, dim), weights))
    return sides


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_instances(6, unit=True), _P)
def test_property_unit_weights_match_oracle(sides, p):
    mu, nu = sides
    rep = solve(mu, nu, CostSpec(p))
    assert abs(rep.value - brute_force_unit(mu, nu, p)) <= 1e-10
    assert rep.duals.violations(mu, nu) == []


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_instances(40, unit=False), _P)
def test_property_weighted_instances_certify(sides, p):
    mu, nu = sides
    rep = solve(mu, nu, CostSpec(p))
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    assert verify_plan(rep.plan, mu, nu) == []
    assert k_support_check(rep.plan, mu, nu, p) == []
    assert rep.duals.violations(mu, nu) == []


def _embedded(mu, dim=2):
    """mu in R^dim, with zero coordinates after the first."""
    pos = np.zeros((mu.n_atoms, dim))
    pos[:, :1] = mu.positions
    return DiscreteMeasure(dim, pos, mu.weights)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_instances(40, unit=False).filter(lambda sides: sides[0].dim == 1), _P)
def test_property_line_solve_matches_the_simplex(sides, p):
    # the same instance in d = 2, with a zero second coordinate, has the same
    # cost bits and goes to the simplex
    mu, nu = sides
    rep = solve(mu, nu, CostSpec(p))
    oracle = solve(_embedded(mu), _embedded(nu), CostSpec(p))
    assert rep.iterations == 0
    assert rep.value == pytest.approx(oracle.value, rel=1e-12, abs=1e-15)
    assert rep.gap <= 1e-9 * (1.0 + rep.value)


@st.composite
def _position_pairs(draw):
    """Two clouds of 1 to 12 points in R^d, d in 1..16, as valid atom
    positions: each coordinate is c * 2^e / sqrt(d) with |c| <= 1 and e
    drawn from a range within [-498, 510], so coordinates run from about
    1e-150 up to 2^510 / sqrt(d) and every point has norm at most 2^510.
    The coordinates come from a drawn seed, which keeps examples cheap."""
    dim = draw(st.integers(1, 16))
    lo = draw(st.integers(-498, 510))
    hi = draw(st.integers(lo, 510))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clouds = []
    for _ in range(2):
        shape = (draw(st.integers(1, 12)), dim)
        coef = rng.uniform(-1.0, 1.0, shape) / math.sqrt(dim)
        clouds.append(np.ldexp(coef, rng.integers(lo, hi + 1, shape)))
    return clouds


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_position_pairs(), _P)
def test_property_cost_kernel_matches_cdist_bit_for_bit(clouds, p):
    from scipy.spatial.distance import cdist

    x, y = clouds
    want = cdist(x, y, "sqeuclidean") if p == 2.0 else _pow(cdist(x, y, "euclidean"), p)
    got = CostSpec(p).pairs(x, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_position_pairs(), _P)
def test_property_pairwise_is_the_diagonal_of_pairs(clouds, p):
    x, y = clouds
    k = min(len(x), len(y))
    cost = CostSpec(p)
    assert cost.pairwise(x[:k], y[:k]).tobytes() == np.diagonal(cost.pairs(x, y))[:k].tobytes()


def _line_certificates(rep, mu, nu, p):
    assert rep.iterations == 0
    assert rep.gap <= 1e-9 * (1.0 + rep.value)
    assert rep.duals.violations(mu, nu) == []
    assert verify_plan(rep.plan, mu, nu) == []
    assert k_support_check(rep.plan, mu, nu, p) == []


def test_line_solve_matches_the_simplex_on_random_instances():
    import levyot.transport as tr

    rng = np.random.default_rng(5)
    for k in range(300):
        mu, nu = _random_line_measure(rng), _random_line_measure(rng)
        p = (1.0, 1.5, 2.0)[k % 3]
        rep = solve(mu, nu, CostSpec(p))
        _line_certificates(rep, mu, nu, p)
        assert rep.value == pytest.approx(tr._solve_simplex(mu, nu, CostSpec(p)).value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "integer"])
def test_line_duals_are_feasible_on_degenerate_lattices(unit):
    # Lattice sites and integer weights make arcs that exhaust both of their
    # atoms at once (with unit weights, every arc does), where the dual walk
    # links through a zero-flow arc.
    import levyot.transport as tr

    rng = np.random.default_rng(7)
    sites = np.array([k for k in range(-8, 9) if k], dtype=float) / 4.0
    arcs = 0
    for k in range(400):
        mu, nu = (
            DiscreteMeasure(1, rng.choice(sites, size=n, replace=False)[:, None],
                            np.ones(n) if unit else rng.integers(1, 4, n).astype(float))
            for n in rng.integers(0, 13, 2)
        )
        p = (1.0, 1.5, 2.0)[k % 3]
        rep = solve(mu, nu, CostSpec(p))
        _line_certificates(rep, mu, nu, p)
        assert rep.value == pytest.approx(tr._solve_simplex(mu, nu, CostSpec(p)).value, rel=1e-12, abs=1e-15)
        if unit and max(mu.n_atoms, nu.n_atoms) <= 6:
            assert rep.value == pytest.approx(brute_force_unit(mu, nu, p), rel=1e-12, abs=1e-15)
        arcs += rep.plan.direct_vals.size
    assert arcs > 1000


def _half_line_parts(mu):
    """The atoms of a d = 1 measure on (0, inf) and on (-inf, 0)."""
    x = mu.positions[:, 0]
    return [DiscreteMeasure(1, mu.positions[keep], mu.weights[keep]) for keep in (x > 0.0, x < 0.0)]


def test_line_solve_is_exact_on_heavy_masses():
    # the d = 1 fraclap family down to 1e-7, masses above 1e10: the value is
    # the radial bound of each half-line, which p = 2 needs most
    from levyot.bounds import radial_lower_bound
    from levyot.families import sweep_pairs

    runtime = build_family({"type": "fraclap", "dim": 1, "sigma": 1.8,
                            "params": {"a0": 0.5, "a1": 0.25, "part": "full"},
                            "grid": {"r_min": 1e-7, "r_max": 1.0, "n_radial": 120}})
    for x, y in sweep_pairs(6, 1, seed=2018):
        mu, nu = runtime.make_measure(x), runtime.make_measure(y)
        assert mu.weights.max() > 1e10
        for p in (1.0, 2.0):
            rep = solve(mu, nu, CostSpec(p))
            _line_certificates(rep, mu, nu, p)
            halves = zip(_half_line_parts(mu), _half_line_parts(nu))
            exact = math.fsum(radial_lower_bound(a, b, p) for a, b in halves)
            assert rep.value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_line_solve_dilates_exactly(p):
    # positions times t = 2^k scale every cost by t^p exactly, so the value,
    # the duals and the plan follow bit for bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu, nu = _random_line_measure(rng), _random_line_measure(rng)
        base = solve(mu, nu, CostSpec(p))
        for k in (-30, -20, -10, 10, 20, 30):
            t = 2.0**k
            rep = solve(*(DiscreteMeasure(1, m.positions * t, m.weights) for m in (mu, nu)), CostSpec(p))
            assert rep.value == t**p * base.value
            assert rep.plan.to_dict() == base.plan.to_dict()
            assert np.array_equal(rep.duals.phi, t**p * base.duals.phi)
            assert np.array_equal(rep.duals.psi, t**p * base.duals.psi)


def _exact_merge(ray_a, ra, wa, ray_b, rb, wb):
    """The monotone merge in exact arithmetic: (ray, ia, ib, mass) per segment,
    and the unit 2^k that makes every mass an integer.

    A float is an integer over a power of two, so over the largest of these
    denominators every mass, sum and difference is a Python integer: exact,
    with no gcd per operation as with Fraction.
    """
    ratios = [w.as_integer_ratio() for w in wa.tolist() + wb.tolist()]
    unit = max((den for _, den in ratios), default=1)
    scaled = [num * (unit // den) for num, den in ratios]
    segments = []
    for ray in sorted(set(ray_a.tolist()) | set(ray_b.tolist())):
        held = []  # per side: its atoms on the ray, far end first, and their cumulative masses
        for labels, r, w in ((ray_a, ra, scaled[: wa.size]), (ray_b, rb, scaled[wa.size :])):
            atoms = sorted(np.flatnonzero(labels == ray).tolist(), key=lambda k: -r[k])
            held.append((atoms, list(itertools.accumulate(w[k] for k in atoms))))
        start = 0
        for end in sorted(set(held[0][1]) | set(held[1][1])):
            ia, ib = (next((k for k, e in zip(atoms, sums) if e >= end), -1) for atoms, sums in held)
            segments.append((ray, ia, ib, end - start))
            start = end
    return segments, unit


# unit-lattice masses, whose cumulative sums meet, and masses from 1e-2 to 1e11
_MASS = st.integers(1, 4).map(float) | st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-2, 10))


@st.composite
def _ray_side(draw):
    """Atoms on up to four rays (labels 0..3), so some rays only one side uses."""
    n = draw(st.integers(0, 12))
    atoms = st.tuples(st.integers(0, 3), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 10.0), _MASS)
    rays, radii, masses = zip(*draw(st.lists(atoms, min_size=n, max_size=n))) if n else ((), (), ())
    return np.array(rays, dtype=np.intp), np.array(radii, dtype=float), np.array(masses, dtype=float)


def _assert_merge_is_exact(a, b):
    ray, ia, ib, mass = _monotone_merge(*a, *b)
    want, unit = _exact_merge(*a, *b)
    assert list(zip(ray.tolist(), ia.tolist(), ib.tolist())) == [seg[:3] for seg in want]
    for got, (*_, exact) in zip(mass.tolist(), want):
        # |got - exact / unit| <= ulp(exact / unit), cross-multiplied over integers
        num, den = got.as_integer_ratio()
        ulp_num, ulp_den = math.ulp(exact / unit).as_integer_ratio()
        assert abs(num * unit - exact * den) * ulp_den <= ulp_num * unit * den


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_ray_side(), _ray_side())
def test_property_monotone_merge_matches_exact_fractions(a, b):
    _assert_merge_is_exact(a, b)


@pytest.mark.parametrize("b_masses", [[2.0**53, 0.5], [2.0**53, 0.25, 0.25], [2.0**53 - 1.0, 1.5]])
def test_monotone_merge_orders_breakpoints_that_round_alike(b_masses):
    # a's breakpoints 2^53 and 2^53 + 1 and b's near them share the high
    # part 2^53, so only the low parts order them, and some of b's fall
    # between a's; ray 1 is shared too, without such ties
    a = (np.array([0, 0, 1]), np.array([3.0, 2.0, 1.0]), np.array([2.0**53, 1.0, 3.0]))
    radii = np.linspace(2.0, 1.0, len(b_masses))
    b = (np.array([0] * len(b_masses) + [1]), np.r_[radii, 0.5], np.array([*b_masses, 2.0]))
    _assert_merge_is_exact(a, b)


_UNIT_MASS = st.integers(1, 4).map(float) | st.floats(0.1, 3.0)
_RADIUS = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.05, 1.5)


@st.composite
def _shared_ray_pair(draw):
    """(mu, nu, p): a random measure on up to four rays in d = 2 or 3, and a
    partner on the same rays: itself, itself outside a ball, itself with
    some rays rescaled radially, or the empty measure, on either side."""
    dim = draw(st.sampled_from([2, 3]))
    axis = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(lambda v: math.hypot(*v) > 0.1)
    dirs = np.array(draw(st.lists(axis, min_size=1, max_size=4)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if draw(st.booleans()):  # one radial profile on every ray, as on an annular grid
        profile = draw(st.lists(st.tuples(_RADIUS, _UNIT_MASS), min_size=1, max_size=5))
        atoms = [(k, r, w) for k in range(len(dirs)) for r, w in profile]
    else:
        atoms = draw(st.lists(st.tuples(st.integers(0, len(dirs) - 1), _RADIUS, _UNIT_MASS), min_size=1, max_size=12))
    ray, radius, weight = (np.array(col) for col in zip(*atoms))
    mu = DiscreteMeasure(dim, radius[:, None] * dirs[ray], weight)
    kind = draw(st.sampled_from(["self", "restrict", "rescale", "empty"]))
    if kind == "self":
        nu = mu
    elif kind == "restrict":
        nu = restrict_outside(mu, draw(_RADIUS))
    elif kind == "rescale":
        scaled = np.isin(ray, sorted(draw(st.sets(st.integers(0, len(dirs) - 1), min_size=1))))
        factor = np.where(scaled, draw(st.sampled_from([0.5, 2.0]) | st.floats(0.5, 1.5)), 1.0)
        nu = DiscreteMeasure(dim, (factor * radius)[:, None] * dirs[ray], weight)
    else:
        nu = DiscreteMeasure.empty(dim)
    if draw(st.booleans()):
        mu, nu = nu, mu
    return mu, nu, draw(st.sampled_from([1.0, 1.5, 2.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_shared_ray_pair())
def test_property_ray_path_is_exact_on_shared_rays(case):
    mu, nu, p = case
    cost = CostSpec(p)
    report, simplex = solve(mu, nu, cost), _solve_simplex(mu, nu, cost)
    rays = _solve_rays(mu, nu, cost)
    if rays is None:  # not certified: solve is the simplex
        assert report.path == "simplex" and report.to_dict() == simplex.to_dict()
        return
    assert report.path == "rays" and report.iterations == 0 and report.to_dict() == rays.to_dict()
    assert report.value == pytest.approx(simplex.value, rel=1e-12, abs=0.0)
    assert report.duals.violations(mu, nu) == []
    assert verify_plan(report.plan, mu, nu) == []
    assert k_support_check(report.plan, mu, nu, p) == []


@st.composite
def _cloud_pair(draw):
    """(mu, nu, p): seeded normal clouds of 1 to 15 atoms a side in d = 2 or 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, m, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 15)), draw(st.integers(1, 15))
    mu, nu = (DiscreteMeasure(dim, rng.normal(size=(k, dim)), rng.uniform(0.1, 3.0, k)) for k in (m, n))
    return mu, nu, draw(st.sampled_from([1.0, 1.5, 2.0]))


# a pair with one empty side shares no ray either, in both orders; nor do
# mirror images whose directions agree in coordinate 0 only
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_cloud_pair())
@example((DiscreteMeasure(2, [[0.6, 0.8]], [1.0]), DiscreteMeasure(2, [[0.6, -0.8]], [1.0]), 2.0))
@example((DiscreteMeasure(3, [[0.6, 0.8, 0.0], [1.2, 1.6, 0.0]], [1.0, 2.0]),
          DiscreteMeasure(3, [[0.6, 0.0, 0.8], [0.3, -0.4, 0.0]], [0.5, 1.5]), 1.0))
@example((DiscreteMeasure(2, [[0.3, -1.2], [2.0, 0.5]], [1.0, 2.5]), DiscreteMeasure.empty(2), 1.0))
@example((DiscreteMeasure.empty(2), DiscreteMeasure(2, [[0.3, -1.2], [2.0, 0.5]], [1.0, 2.5]), 2.0))
@example((DiscreteMeasure(3, [[0.3, -1.2, 0.7]], [4.0]), DiscreteMeasure.empty(3), 1.5))
@example((DiscreteMeasure.empty(3), DiscreteMeasure(3, [[0.3, -1.2, 0.7], [1e-3, 2.0, -5.0]], [4.0, 1e-2]), 2.0))
def test_property_clouds_without_shared_rays_take_the_simplex(case):
    mu, nu, p = case
    assert not np.isin(*_ray_ids(_ray_keys(mu, nu), mu.n_atoms)).any()
    report = solve(mu, nu, CostSpec(p))
    assert report.path == "simplex"
    assert report.to_dict() == _solve_simplex(mu, nu, CostSpec(p)).to_dict()


@st.composite
def _gate_pair(draw):
    """(mu, nu, p) in d = 2 or 3: one to six atoms a side on a few random
    rays and their mirror images in the last coordinate, which agree with
    them in coordinate 0 only; each side draws its own set of rays, so the
    sides share a ray, share only coordinate-0 keys, or share neither.  One
    pair in seven has mu empty, one nu, one both."""
    dim = draw(st.sampled_from([2, 3]))
    axis = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(lambda v: math.hypot(*v) > 0.1)
    dirs = np.array(draw(st.lists(axis, min_size=1, max_size=3)))
    dirs = np.concatenate([dirs, dirs * np.r_[np.ones(dim - 1), -1.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def side() -> DiscreteMeasure:
        rays = sorted(draw(st.sets(st.integers(0, len(dirs) - 1), min_size=1)))
        atoms = draw(st.lists(st.tuples(st.sampled_from(rays), _RADIUS, _UNIT_MASS), min_size=1, max_size=6))
        ray, radius, weight = (np.array(col) for col in zip(*atoms))
        return DiscreteMeasure(dim, radius[:, None] * dirs[ray], weight)

    mu, nu = side(), side()
    empty = draw(st.integers(0, 6))
    if empty in (4, 6):
        mu = DiscreteMeasure.empty(dim)
    if empty in (5, 6):
        nu = DiscreteMeasure.empty(dim)
    return mu, nu, draw(st.sampled_from([1.0, 1.5, 2.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_gate_pair())
@example((DiscreteMeasure(2, [[0.6, 0.8]], [1.0]), DiscreteMeasure(2, [[0.6, -0.8]], [1.0]), 2.0))
@example((DiscreteMeasure(3, [[0.6, 0.8, 0.0]], [1.0]), DiscreteMeasure(3, [[0.6, 0.0, 0.8], [1.2, 1.6, 0.0]], [1.0, 2.0]), 1.5))
@example((DiscreteMeasure(2, [[0.6, 0.8], [1.2, 1.6]], [1.0, 2.0]), DiscreteMeasure(2, [[0.3, 0.4]], [3.0]), 1.0))
@example((DiscreteMeasure(3, [[0.6, 0.8, 0.0]], [1.0]), DiscreteMeasure.empty(3), 2.0))
@example((DiscreteMeasure.empty(2), DiscreteMeasure.empty(2), 1.0))
@example((DiscreteMeasure(2, [[1.0, 0.0]], [1.0]), DiscreteMeasure(2, [[0.0, 0.5]], [2.0]), 1.5))
# first atoms that differ in coordinate 0 while later ones share a ray, and
# first atoms that agree in coordinate 0 only, in d = 2 and 3, both orders
@example((DiscreteMeasure(2, [[1.0, 0.0], [0.6, 0.8]], [1.0, 2.0]),
          DiscreteMeasure(2, [[0.0, 1.0], [1.2, 1.6]], [3.0, 1.0]), 2.0))
@example((DiscreteMeasure(2, [[0.0, 1.0], [1.2, 1.6]], [3.0, 1.0]),
          DiscreteMeasure(2, [[1.0, 0.0], [0.6, 0.8]], [1.0, 2.0]), 1.0))
@example((DiscreteMeasure(3, [[0.6, 0.0, 0.8], [0.0, 0.6, 0.8]], [1.0, 2.0]),
          DiscreteMeasure(3, [[0.6, 0.8, 0.0], [0.0, 1.2, 1.6]], [0.5, 1.5]), 1.5))
@example((DiscreteMeasure(3, [[0.6, 0.8, 0.0], [0.0, 1.2, 1.6]], [0.5, 1.5]),
          DiscreteMeasure(3, [[0.6, 0.0, 0.8], [0.0, 0.6, 0.8]], [1.0, 2.0]), 2.0))
@example((DiscreteMeasure(3, [[0.6, 0.0, -0.8], [1.0, 0.0, 0.0]], [1.0, 2.0]),
          DiscreteMeasure(3, [[0.6, 0.8, 0.0]], [0.5]), 1.0))
@example((DiscreteMeasure(3, [[0.6, 0.8, 0.0]], [0.5]),
          DiscreteMeasure(3, [[0.6, 0.0, -0.8], [1.0, 0.0, 0.0]], [1.0, 2.0]), 2.0))
def test_property_ray_gate_never_changes_solve(case):
    # The gate may stop only a pair whose sides share no ray label, so the
    # labels are ranked for every other pair; and solve's report is the
    # ungated rule's, which ranks the labels of every pair: a key row that
    # all atoms share, put first, lets every pair with atoms on both sides
    # past the coordinate-0 test and leaves the labels as they are.
    import levyot.transport as tr

    mu, nu, p = case
    ray_x, ray_y = _ray_ids(_ray_keys(mu, nu), mu.n_atoms)
    shared = np.isin(ray_x, ray_y).any() or not (mu.n_atoms or nu.n_atoms)
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "_ray_ids", lambda *args: ranked.append(args) or _ray_ids(*args))
        gated = solve(mu, nu, CostSpec(p))
    assert bool(ranked) or not shared
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "_ray_keys", lambda a, b: np.vstack([np.zeros((1, a.n_atoms + b.n_atoms), np.int64), _ray_keys(a, b)]))
        ungated = solve(mu, nu, CostSpec(p))
    assert gated.path == ungated.path
    assert gated.to_dict() == ungated.to_dict()


REPORT_GOLDEN = Path(__file__).parent / "golden" / "report_digests.json"


def _golden_pairs():
    """(name, mu, nu) pairs of the report-digest golden: seeded line pairs in
    d = 1, empty sides included; grid-family pairs in d = 2 and 3, which take
    the ray path: two endpoints' hat parts, a measure against itself, and a
    measure against itself outside a ball, in both orders; and seeded normal
    clouds in d = 2 and 3, which share no ray and take the simplex."""
    rng = np.random.default_rng(2029)
    line = [(_random_line_measure(rng), _random_line_measure(rng)) for _ in range(6)]
    mu, empty = line[0][0], DiscreteMeasure.empty(1)
    line += [(mu, empty), (empty, mu), (empty, empty)]
    for k, pair in enumerate(line):
        yield f"line-{k}", *pair
    for kind in ("kernel", "fraclap"):
        for dim in (2, 3):
            config = {"type": kind, "dim": dim, "sigma": 0.5 if kind == "kernel" else 1.5,
                      "grid": {"r_min": 1e-3, "r_max": 2.0, "n_radial": 5, "n_angular": 6}}
            runtime = build_family(config)
            hat_x, hat_y = (decompose(runtime.make_measure(np.array(x))).hat for x in ([0.1] * dim, [0.4] * dim))
            whole = runtime.make_measure(np.array([0.7] * dim))
            outside = restrict_outside(whole, 0.05)
            for name, pair in (("hats", (hat_x, hat_y)), ("self", (whole, whole)),
                               ("outside", (whole, outside)), ("inside", (outside, whole))):
                yield f"{kind}-d{dim}-{name}", *pair
    for dim in (2, 3):
        yield f"cloud-d{dim}", *(DiscreteMeasure(dim, rng.normal(size=(8, dim)), rng.uniform(0.1, 3.0, 8))
                                 for _ in "ab")


def _report_digests() -> dict[str, str]:
    """sha256 of each golden pair's path and ``SolveReport.to_dict()`` at p = 1, 1.5 and 2."""
    digests = {}
    for name, mu, nu in _golden_pairs():
        for p in (1.0, 1.5, 2.0):
            report = solve(mu, nu, CostSpec(p))
            doc = json.dumps({"path": report.path, **report.to_dict()})
            digests[f"{name}-p{p}"] = hashlib.sha256(doc.encode()).hexdigest()
    return digests


def test_reports_match_the_digest_golden():
    # The golden holds ``_report_digests()`` of a trusted commit; json.dumps
    # writes each float in full, so any changed bit of a report changes its
    # digest.  A change that may move output regenerates the file with
    # ``json.dump(_report_digests(), fh, indent=1)`` and says why.
    golden = json.loads(REPORT_GOLDEN.read_text())
    digests = _report_digests()
    assert sorted(digests) == sorted(golden)
    assert [name for name in golden if digests[name] != golden[name]] == []


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


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_verify_plan_is_relative_to_heavy_atoms(p):
    # the heavy fraclap family: atoms down to 1e-7 carry masses up to 1.2e11
    runtime = build_family({"type": "fraclap", "dim": 2, "sigma": 1.8,
                            "params": {"a0": 0.5, "a1": 0.25, "part": "full"},
                            "grid": {"r_min": 1e-7, "r_max": 1.0, "n_radial": 120, "n_angular": 8}})
    mu, nu = runtime.make_measure([0.1, 0.0]), runtime.make_measure([0.3, 0.2])
    assert mu.weights.max() > 1e11
    plan = solve(mu, nu, CostSpec(p)).plan
    assert verify_plan(plan, mu, nu) == []
    # a relative error of 1e-9 on the heaviest atom is still flagged
    k = int(np.argmax(nu.weights))
    bent = dataclasses.replace(plan, from_reservoir=plan.from_reservoir + np.eye(nu.n_atoms)[k] * 1e-9 * nu.weights[k])
    (bad,) = verify_plan(bent, mu, nu)
    assert (bad.side, bad.index) == ("nu", k)
    assert bad.error == pytest.approx(1e-9 * nu.weights[k], rel=1e-6)


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


@pytest.mark.parametrize("nu_pos, nu_w", [([[-3e153, 1.0]], [2.0]), ([], [])], ids=["pair", "empty-side"])
def test_solve_rejects_overflowing_costs(nu_pos, nu_w):
    # a site whose |z|^2 overflows is refused before it can reach a solve
    with pytest.raises(ValueError, match="overflow"):
        DiscreteMeasure(2, [[1e160, 0.0], [0.0, 3.0]], [1.0, 1.0])
    # at the 2^510 bound every direct and reservoir cost stays finite, in either order
    mu = DiscreteMeasure(2, [[2.0**510, 0.0], [0.0, 3.0]], [1.0, 1.0])
    nu = DiscreteMeasure(2, nu_pos, nu_w)
    for a, b in ((mu, nu), (nu, mu)):
        assert math.isfinite(solve(a, b, CostSpec(2.0)).value)
    # the solver's own guard still refuses a cost table that overflowed to inf
    with pytest.raises(ValueError, match="overflow"):
        _cost_scale(np.array([0.0, 1.0, math.inf]))


def test_solve_refuses_total_masses_whose_sum_overflows():
    # Each measure's mass is finite, their sum is not: every path of solve,
    # and the radial lower bound, refuse it by name before any merge.
    from levyot.bounds import radial_lower_bound

    heavy = 1e308
    cases = [
        (DiscreteMeasure(1, [[0.5]], [heavy]), DiscreteMeasure(1, [[0.7]], [heavy])),  # line
        (DiscreteMeasure(2, [[0.5, 0.0]], [heavy]), DiscreteMeasure(2, [[0.7, 0.0]], [heavy])),  # rays
        (DiscreteMeasure(2, [[0.5, 0.0]], [heavy]), DiscreteMeasure(2, [[0.0, 0.7]], [heavy])),  # simplex
    ]
    for mu, nu in cases:
        for call in (lambda: solve(mu, nu, CostSpec(2.0)), lambda: radial_lower_bound(mu, nu, 2.0)):
            with pytest.raises(ValueError, match=r"^the total masses 1e\+308 and 1e\+308 sum beyond the float range"):
                call()
    # at the edge the two masses still fit
    half = DiscreteMeasure(1, [[0.5]], [0.5 * 1.7976931348623157e308])
    assert math.isfinite(solve(half, half, CostSpec(1.0)).value)


def test_sites_up_to_2_510_solve_to_finite_costs():
    # [1e154] against [-1e154] has a finite cost, but |x - y|^2 = 4e308
    # overflows, so the constructor rejects |z| > 2^510 before any solve
    with pytest.raises(ValueError, match="exceeds 2\\^510"):
        DiscreteMeasure(1, [[1e154]], [1.0])
    edge = DiscreteMeasure(1, [[2.0**510]], [1.0])
    assert edge.radii.tolist() == [2.0**510]
    far, near = DiscreteMeasure(1, [[3e153]], [1.0]), DiscreteMeasure(1, [[-3e153]], [1.0])
    for p in (1.5, 2.0):
        # routing both atoms through the reservoir beats the direct move
        assert solve(far, near, CostSpec(p)).value == pytest.approx(2.0 * 3e153**p, rel=1e-14)
    assert math.isfinite(solve(edge, DiscreteMeasure(1, [[-(2.0**510)]], [1.0]), CostSpec(2.0)).value)


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


def _violations_dense(duals, mu, nu, tol=1e-9):
    """Reference: the audit over the dense pair and slack matrices."""
    cost = CostSpec(duals.p)
    res_mu, res_nu = cost.reservoir_cost(mu), cost.reservoir_cost(nu)
    out = [f"phi[{i}] = {duals.phi[i]!r} exceeds |x|^p = {res_mu[i]!r}"
           for i in np.nonzero(duals.phi > res_mu + tol)[0]]
    out += [f"psi[{j}] = {duals.psi[j]!r} exceeds |y|^p = {res_nu[j]!r}"
            for j in np.nonzero(duals.psi > res_nu + tol)[0]]
    slack = cost.pair_matrix(mu, nu) - duals.phi[:, None] - duals.psi[None, :]
    out += [f"phi[{i}] + psi[{j}] exceeds |x-y|^p by {float(-slack[i, j])!r}"
            for i, j in np.argwhere(slack < -tol)]
    return out


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_violations_match_the_dense_audit(rng, p):
    # 300 x 260 spans two row blocks; raised duals break many pair constraints
    mu, nu = _clouds(rng, (300, 260))
    duals = solve(mu, nu, CostSpec(p)).duals
    assert duals.violations(mu, nu) == [] == _violations_dense(duals, mu, nu)
    for lift in (1e-3, 0.5):
        bad = DualPotentials(phi=duals.phi + lift * rng.uniform(size=300), psi=duals.psi + lift, p=p)
        got = bad.violations(mu, nu)
        assert got == _violations_dense(bad, mu, nu)
        assert sum("+ psi" in v for v in got) > 65536 // 261
    empty = DiscreteMeasure.empty(3)
    for a, b in ((mu, empty), (empty, nu)):
        one_sided = DualPotentials(phi=np.full(a.n_atoms, 9.0), psi=np.full(b.n_atoms, 9.0), p=p)
        assert one_sided.violations(a, b) == _violations_dense(one_sided, a, b) != []


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
    # the k-NN path, with its sampled pool threshold, is just as repeatable
    big = _clouds(rng, (300, 260))
    assert solve(*big, CostSpec(1.5)).to_dict() == solve(*big, CostSpec(1.5)).to_dict()
    # and so is its start from coincident atoms matched in place
    pair = _kernel_pair()
    assert _solve_simplex(*pair, CostSpec(1.5)).to_dict() == _solve_simplex(*pair, CostSpec(1.5)).to_dict()
