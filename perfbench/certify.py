"""Checks of levyot outputs that are computed apart from the program.

Every function returns a list of problems; an empty list means the output
passed.  Nothing here calls into ``levyot``: costs, marginals, duals and the
brute-force maxima are recomputed from the input data with plain NumPy.
"""

from __future__ import annotations

import math

import numpy as np

# A plan marginal may differ from its atom weight by this share of the weight.
MARGINAL_REL = 1e-10
# The recomputed primal value must equal the reported one to this share.
VALUE_REL = 1e-12
# Dual constraints may be exceeded by this share of (1 + largest cost).
FEAS_REL = 1e-10
# Strong duality: |primal - dual| <= DUALITY_REL * (1 + value).
DUALITY_REL = 1e-9
# Sweep rows against the in-place plan.
SWEEP_REL = 1e-9
# Grid maxima: absolute tolerance on values of order one.
GRID_ABS = 1e-11


def measure_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, dim) and weights (n,) of a measure JSON document."""
    dim = int(doc["dim"])
    atoms = doc["atoms"]
    z = np.array([a["z"] for a in atoms], dtype=float).reshape(-1, dim)
    w = np.array([a["w"] for a in atoms], dtype=float)
    return z, w


def _power(r: np.ndarray, p: float) -> np.ndarray:
    return r if p == 1.0 else r**p


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 by explicit per-axis differences (no cdist)."""
    sq = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        sq += diff * diff
    return sq


def pair_costs(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """|x_i - y_j|^p."""
    sq = _sq_dists(x, y)
    return sq if p == 2.0 else _power(np.sqrt(sq), p)


def dist_certificate(mu_doc: dict, nu_doc: dict, out: dict, p: float) -> list[str]:
    """Optimality certificate of a ``levyot dist`` report.

    Checks nonnegativity, marginals relative to each weight, the recomputed
    primal value, dual feasibility on every pair and reservoir arc, strong
    duality, and that every charged arc lies in the cheap set
    |x - y|^p <= |x|^p + |y|^p.
    """
    x, wx = measure_arrays(mu_doc)
    y, wy = measure_arrays(nu_doc)
    m, n = wx.size, wy.size
    plan = out["plan"]
    direct = np.array(plan["direct"], dtype=float).reshape(-1, 3)
    rows = direct[:, 0].astype(np.int64)
    cols = direct[:, 1].astype(np.int64)
    vals = direct[:, 2]
    to_res = np.array(plan["to_reservoir"], dtype=float)
    from_res = np.array(plan["from_reservoir"], dtype=float)
    phi = np.array(out["duals"]["phi"], dtype=float)
    psi = np.array(out["duals"]["psi"], dtype=float)
    if (to_res.size, phi.size, from_res.size, psi.size) != (m, m, n, n):
        return ["plan or duals do not match the atom counts"]
    if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
        return ["plan arc index out of range"]

    problems = []
    if np.any(vals < 0) or np.any(to_res < 0) or np.any(from_res < 0):
        problems.append("negative flow")
    row_sum = np.bincount(rows, weights=vals, minlength=m) + to_res
    col_sum = np.bincount(cols, weights=vals, minlength=n) + from_res
    for side, got, want in (("mu", row_sum, wx), ("nu", col_sum, wy)):
        bad = np.abs(got - want) > MARGINAL_REL * want
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(f"{int(bad.sum())} {side} marginals off, first {side}[{k}] by {got[k] - want[k]!r}")

    res_x = _power(np.linalg.norm(x, axis=1), p) if m else np.zeros(0)
    res_y = _power(np.linalg.norm(y, axis=1), p) if n else np.zeros(0)
    cost = pair_costs(x, y, p) if m and n else np.zeros((m, n))
    arc_cost = cost[rows, cols]
    primal = math.fsum((vals * arc_cost).tolist() + (to_res * res_x).tolist() + (from_res * res_y).tolist())
    value = float(out["value"])
    if abs(primal - value) > VALUE_REL * (1.0 + abs(primal)):
        problems.append(f"recomputed value {primal!r} != reported {value!r}")

    scale = 1.0 + max(
        float(cost.max()) if cost.size else 0.0,
        float(res_x.max()) if m else 0.0,
        float(res_y.max()) if n else 0.0,
    )
    tol = FEAS_REL * scale
    worst = max(
        float(np.max(phi - res_x)) if m else -math.inf,
        float(np.max(psi - res_y)) if n else -math.inf,
        float(np.max(phi[:, None] + psi[None, :] - cost)) if m and n else -math.inf,
    )
    if worst > tol:
        problems.append(f"dual constraint exceeded by {worst!r}")
    dual = math.fsum((wx * phi).tolist()) + math.fsum((wy * psi).tolist())
    if abs(primal - dual) > DUALITY_REL * (1.0 + abs(primal)):
        problems.append(f"duality gap {abs(primal - dual)!r}")

    charged = vals > 0
    excess = arc_cost[charged] - (res_x[rows[charged]] + res_y[cols[charged]])
    if excess.size and float(excess.max()) > tol:
        problems.append(f"{int((excess > tol).sum())} charged arcs outside the cheap set")
    return problems


def in_place_plan(za: np.ndarray, wa: np.ndarray, zb: np.ndarray, wb: np.ndarray, p: float) -> tuple[float, float]:
    """Cost of the plan that keeps atom k of one measure on atom k of the other.

    The two discretised endpoints share their cell layout, so atom k of each
    sits in the same cell.  The plan moves min(wa, wb) from za[k] to zb[k] and
    trades the excess with the reservoir.  Also returns the p = 1 dual lower
    bound |sum wa |za| - sum wb |zb||, from phi = |z|, psi = -|z| (or the
    reverse), which is feasible at p = 1 for any pair of measures.
    """
    if za.shape != zb.shape:
        raise ValueError("endpoint measures do not share a cell layout")
    ra, rb = np.linalg.norm(za, axis=1), np.linalg.norm(zb, axis=1)
    move = _power(np.linalg.norm(za - zb, axis=1), p)
    terms = (
        np.minimum(wa, wb) * move
        + np.maximum(wa - wb, 0.0) * _power(ra, p)
        + np.maximum(wb - wa, 0.0) * _power(rb, p)
    )
    lower = abs(math.fsum((wa * ra).tolist()) - math.fsum((wb * rb).tolist()))
    return math.fsum(terms.tolist()), lower


def sweep_row_problems(distance: float, plan_cost: float, lower: float, p: float) -> list[str]:
    """A sweep row against the in-place plan between its endpoints.

    At p = 1 the in-place plan is optimal (its cost meets the dual lower
    bound), so the reported distance must equal it.  At other p it is only
    admissible, so the distance may not exceed it.
    """
    ref = plan_cost ** (1.0 / p)
    if p == 1.0:
        if plan_cost - lower > SWEEP_REL * plan_cost:
            return [f"in-place plan {plan_cost!r} not certified by the dual bound {lower!r}"]
        if abs(distance - ref) > SWEEP_REL * ref:
            return [f"distance {distance!r} != in-place optimum {ref!r}"]
    elif distance > ref * (1.0 + SWEEP_REL):
        return [f"distance {distance!r} exceeds the in-place plan {ref!r}"]
    return []


def grid_nodes(lo: np.ndarray, hi: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    axes = [np.linspace(lo[k], hi[k], shape[k]) for k in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def supconv_problems(
    values: np.ndarray, lo, hi, delta: float, got_values: np.ndarray, got_achievers: np.ndarray
) -> list[str]:
    """Brute-force max over node pairs of u(y) - |x - y|^2 / delta.

    The reported value must equal the maximum, and the reported achiever must
    attain it (ties between nodes are allowed).
    """
    nodes = grid_nodes(np.asarray(lo, float), np.asarray(hi, float), values.shape)
    u = values.reshape(-1)
    got = np.asarray(got_values, dtype=float).reshape(-1)
    arg = np.asarray(got_achievers, dtype=np.int64).reshape(-1)
    if got.size != u.size or arg.size != u.size or arg.min() < 0 or arg.max() >= u.size:
        return ["sup-convolution output has the wrong shape"]
    problems = []
    step = max(1, (1 << 21) // u.size)
    for start in range(0, u.size, step):
        stop = min(u.size, start + step)
        cand = u[None, :] - _sq_dists(nodes[start:stop], nodes) / delta
        best = cand.max(axis=1)
        at_arg = cand[np.arange(stop - start), arg[start:stop]]
        if np.any(np.abs(got[start:stop] - best) > GRID_ABS):
            problems.append(f"sup-convolution value off near node {start}")
        if np.any(np.abs(at_arg - best) > GRID_ABS):
            problems.append(f"sup-convolution achiever does not attain the max near node {start}")
    return problems


def doubling_problems(
    u: np.ndarray, v: np.ndarray, lo, hi, epsilon: float, kappa: float, p: float,
    got_value: float, got_index: tuple[int, int],
) -> list[str]:
    """Brute-force max over node pairs of u(x) - v(y) - psi_kappa(x - y) / eps."""
    nodes = grid_nodes(np.asarray(lo, float), np.asarray(hi, float), u.shape)
    uu, vv = u.reshape(-1), v.reshape(-1)
    kp = kappa ** (p / 2.0)

    def objective(i: np.ndarray | slice, sq: np.ndarray) -> np.ndarray:
        return uu[i, None] - vv[None, :] - ((kappa + sq) ** (p / 2.0) - kp) / epsilon

    best = -math.inf
    step = max(1, (1 << 21) // vv.size)
    for start in range(0, uu.size, step):
        stop = min(uu.size, start + step)
        best = max(best, float(objective(slice(start, stop), _sq_dists(nodes[start:stop], nodes)).max()))
    i, j = got_index
    at_index = float(objective(np.array([i]), _sq_dists(nodes[i : i + 1], nodes))[0, j])
    problems = []
    if abs(got_value - best) > GRID_ABS:
        problems.append(f"doubling value {got_value!r} != brute-force max {best!r}")
    if abs(at_index - best) > GRID_ABS:
        problems.append("doubling maximiser does not attain the max")
    return problems


def experiment_problems(doc: dict, shift: float = 0.1) -> list[str]:
    """Each row's distance term against (shift |sin x* - sin y*|)^2 / eps.

    The experiment's measures are single unit atoms at 0.5 + shift sin(x),
    both on the positive half-line, so the p = 2 cost is the squared gap.
    """
    problems = []
    for row in doc["rows"]:
        eps = float(row["epsilon"])
        closed = (shift * abs(math.sin(row["x_star"]) - math.sin(row["y_star"]))) ** 2 / eps
        if abs(row["distance_term"] - closed) > 1e-9 * closed + 1e-15 / eps:
            problems.append(f"eps={eps}: distance_term {row['distance_term']!r} != {closed!r}")
    if not doc["rows"]:
        problems.append("experiment returned no rows")
    return problems
