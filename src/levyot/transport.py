"""Exact optimal transport between discrete Levy measures with a reservoir at 0.

The problem: move the mass of ``mu`` onto ``nu`` at cost |x - y|^p per unit,
where the origin acts as an infinite reservoir that can absorb or emit any
amount of mass (paying only the movement cost |x|^p to reach it).  Marginals
are only prescribed away from the origin, so the two measures may have
different total masses.

The solver reduces this to a balanced transportation problem by appending a
virtual reservoir atom of mass |nu| to the mu side and one of mass |mu| to
the nu side, with costs c(x, 0) = |x|^p, c(0, y) = |y|^p and c(0, 0) = 0, and
runs a primal transportation simplex on the complete bipartite graph.  Tree
potentials give exact dual potentials normalised to vanish at the reservoir.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .measures import DiscreteMeasure, _check_p, _pow

__all__ = [
    "CostSpec",
    "TransportPlan",
    "DualPotentials",
    "SolveReport",
    "PlanViolation",
    "solve",
    "distance",
    "verify_plan",
    "k_support_check",
    "dual_value",
    "brute_force_unit",
]

# Reduced costs below -PIVOT_TOL * cost_scale trigger a pivot; anything above
# is treated as optimal.  Keeps the duality gap at rounding level.
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class CostSpec:
    """Movement cost |x - y|^p together with the implied reservoir costs."""

    p: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_p(self.p))

    def pair_matrix(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
        """Dense |x_i - y_j|^p over the atom grids."""
        if self.p == 2.0:
            return cdist(mu.positions, nu.positions, "sqeuclidean")
        d = cdist(mu.positions, nu.positions, "euclidean")
        return _pow(d, self.p)

    def reservoir_cost(self, mu: DiscreteMeasure) -> np.ndarray:
        """Per-atom cost |z|^p of moving to (or from) the reservoir."""
        return _pow(mu.radii, self.p)


@dataclass(frozen=True)
class TransportPlan:
    """An admissible coupling: direct atom-to-atom arcs plus reservoir flows.

    ``direct_rows/direct_cols/direct_vals`` store the sparse nonnegative
    coupling gamma_{ij}; ``to_reservoir[i]`` is the mass of mu-atom i absorbed
    at the origin and ``from_reservoir[j]`` the mass emitted to nu-atom j.
    Reservoir-to-reservoir mass is not tracked.
    """

    n_mu: int
    n_nu: int
    direct_rows: np.ndarray
    direct_cols: np.ndarray
    direct_vals: np.ndarray
    to_reservoir: np.ndarray
    from_reservoir: np.ndarray

    def mu_marginal(self) -> np.ndarray:
        out = np.array(self.to_reservoir, dtype=float, copy=True)
        np.add.at(out, self.direct_rows, self.direct_vals)
        return out

    def nu_marginal(self) -> np.ndarray:
        out = np.array(self.from_reservoir, dtype=float, copy=True)
        np.add.at(out, self.direct_cols, self.direct_vals)
        return out

    def to_dict(self) -> dict:
        return {
            "direct": [
                [int(i), int(j), float(v)]
                for i, j, v in zip(self.direct_rows, self.direct_cols, self.direct_vals)
            ],
            "to_reservoir": [float(v) for v in self.to_reservoir],
            "from_reservoir": [float(v) for v in self.from_reservoir],
        }


@dataclass(frozen=True)
class DualPotentials:
    """Per-atom potentials (phi, psi) vanishing at the reservoir.

    Feasibility means phi_i + psi_j <= |x_i - y_j|^p for every atom pair and,
    against the reservoir, phi_i <= |x_i|^p and psi_j <= |y_j|^p (these are the
    pair constraints with the partner at the origin, where both potentials are
    pinned to zero).
    """

    phi: np.ndarray
    psi: np.ndarray
    p: float

    def violations(self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-9) -> list[str]:
        cost = CostSpec(self.p)
        out: list[str] = []
        res_mu = cost.reservoir_cost(mu)
        res_nu = cost.reservoir_cost(nu)
        for i in np.nonzero(self.phi > res_mu + tol)[0]:
            out.append(f"phi[{i}] = {self.phi[i]!r} exceeds |x|^p = {res_mu[i]!r}")
        for j in np.nonzero(self.psi > res_nu + tol)[0]:
            out.append(f"psi[{j}] = {self.psi[j]!r} exceeds |y|^p = {res_nu[j]!r}")
        slack = cost.pair_matrix(mu, nu) - self.phi[:, None] - self.psi[None, :]
        for i, j in np.argwhere(slack < -tol):
            out.append(f"phi[{i}] + psi[{j}] exceeds |x-y|^p by {float(-slack[i, j])!r}")
        return out

    def to_dict(self) -> dict:
        return {
            "phi": [float(v) for v in self.phi],
            "psi": [float(v) for v in self.psi],
            "p": self.p,
        }


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one exact solve: optimal cost, plan, duals and the gap."""

    value: float
    plan: TransportPlan
    duals: DualPotentials
    iterations: int
    gap: float

    @property
    def distance(self) -> float:
        return self.value ** (1.0 / self.duals.p)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "distance": self.distance,
            "gap": self.gap,
            "iterations": self.iterations,
            "plan": self.plan.to_dict(),
            "duals": self.duals.to_dict(),
        }


@dataclass(frozen=True)
class PlanViolation:
    """One broken marginal or positivity constraint, by atom index."""

    side: str  # "mu" | "nu" | "negativity"
    index: int
    error: float

    def __str__(self) -> str:
        return f"{self.side}[{self.index}]: off by {self.error!r}"


# ---------------------------------------------------------------------------
# Transportation simplex on the balanced reservoir reduction
# ---------------------------------------------------------------------------

def _cost_scale(costs: np.ndarray) -> float:
    """max(1, largest cost); rejects costs that overflowed to inf.

    The reservoir reduction always holds the reservoir entry, so ``costs`` is
    never empty.
    """
    scale = float(costs.max())
    if not math.isfinite(scale):
        raise ValueError(f"transport cost overflows to {scale!r}; rescale the atom coordinates")
    return max(1.0, scale)


class _Simplex:
    """Primal transportation simplex specialised to the reservoir reduction.

    Sources are rows of ``cost`` (the last row is the virtual reservoir
    source), sinks are columns (last column virtual).  The initial spanning
    tree routes everything through the reservoir, mirroring the always
    feasible plan that projects both measures onto the origin.

    The spanning tree is kept as a preorder sequence (``order``/``pos``) with
    subtree sizes, so each pivot moves contiguous array segments and applies
    dual updates as vectorised slice operations.  Entering arcs come first
    from a sparse nearest-neighbour warm-start pool, then from full-matrix
    candidate pools that are re-priced wholesale between pivots; termination
    is certified by a full scan against freshly recomputed tree potentials.
    """

    def __init__(
        self,
        cost: np.ndarray,
        supply: np.ndarray,
        demand: np.ndarray,
        points_mu: np.ndarray,
        points_nu: np.ndarray,
    ):
        self.cost = cost
        self.supply = supply
        self.demand = demand
        self.points_mu = points_mu
        self.points_nu = points_nu
        self.m, self.n = cost.shape
        self.N = self.m + self.n  # node ids: sources 0..m-1, sinks m..m+n-1
        self.root = self.m - 1  # virtual source
        self.vsink = self.N - 1  # virtual sink
        self.tol = PIVOT_TOL * _cost_scale(cost)
        self.iterations = 0

        self.u = np.zeros(self.m)
        self.v = np.zeros(self.n)

        # Initial tree: root (virtual source) feeds every sink directly; real
        # sources hang off the virtual sink.  Flows satisfy the marginals.
        # parent/flow/size are plain lists: the pivot loops touch them one
        # scalar at a time.
        m, n = self.m, self.n
        parent = np.full(self.N, -1, dtype=np.int64)
        flow = np.zeros(self.N)  # flow on the arc node -> parent
        sinks = np.arange(m, self.N)
        parent[sinks] = self.root
        flow[m : self.N - 1] = demand[: n - 1]
        flow[self.vsink] = 0.0
        parent[: m - 1] = self.vsink
        flow[: m - 1] = supply[: m - 1]
        self.parent = parent.tolist()
        self.flow = flow.tolist()
        self.v[:] = cost[m - 1, :]
        self.u[: m - 1] = cost[: m - 1, n - 1] - self.v[n - 1]
        self.u[self.root] = 0.0

        # Preorder: root, real sinks, then the virtual sink with all real
        # sources below it.
        self.order = np.concatenate(
            [[self.root], sinks[:-1], [self.vsink], np.arange(m - 1)]
        ).astype(np.int64)
        self.pos = np.empty(self.N, dtype=np.int64)
        self.pos[self.order] = np.arange(self.N)
        size = np.ones(self.N, dtype=np.int64)
        size[self.root] = self.N
        size[self.vsink] = m
        self.size = size.tolist()

        # Candidate pool capacity for major/minor pricing.
        self.refill_size = int(min(self.cost.size, max(4096, 16 * self.N)))
        self._scan_buf = np.empty((min(self.m, max(1, 65536 // self.n)), self.n))
        self._arange = np.arange(self.N, dtype=np.int64)

    # -- tree mechanics ----------------------------------------------------

    def _pivot(self, i: int, j: int) -> None:
        s_node, t_node = i, self.m + j
        delta = float(self.cost[i, j] - self.u[i] - self.v[j])
        m, pos, size, parent, flow = self.m, self.pos, self.size, self.parent, self.flow

        # Climb from each endpoint to the lowest common ancestor.
        up_s: list[int] = []
        pt = pos.item(t_node)
        node = s_node
        while True:
            pn = pos.item(node)
            if pn <= pt < pn + size[node]:
                break
            up_s.append(node)
            node = parent[node]
        lca = node
        up_t: list[int] = []
        node = t_node
        while node != lca:
            up_t.append(node)
            node = parent[node]

        # Pushing mass along the entering arc drains alternating tree arcs,
        # starting with the arc immediately above each endpoint.  The leaving
        # arc is the lexicographically smallest (i, j) among the tightest.
        theta = math.inf
        best_arc = (-1, -1)
        leave_chain: list[int] = up_s
        leave_k = -1
        for chain in (up_s, up_t):
            for k in range(0, len(chain), 2):
                node = chain[k]
                f = flow[node]
                if f > theta:
                    continue
                arc = (node, parent[node] - m) if node < m else (parent[node], node - m)
                if f < theta or arc < best_arc:
                    theta, best_arc, leave_chain, leave_k = f, arc, chain, k

        # Apply the flow change around the cycle.
        for chain in (up_s, up_t):
            for k in range(0, len(chain), 2):
                flow[chain[k]] -= theta
            for k in range(1, len(chain), 2):
                flow[chain[k]] += theta

        # The leaving arc splits off the subtree rooted at it; the entering
        # arc re-roots that subtree at its inside endpoint.
        if leave_chain is up_s:
            e_sub, e_root = s_node, t_node
        else:
            e_sub, e_root = t_node, s_node
        self._rehang(leave_chain[: leave_k + 1], e_root, theta, lca)

        # Dual update: every potential in the detached subtree shifts by the
        # entering arc's reduced cost (sign split between sources and sinks).
        # When the detached side is the larger one, shift the complement the
        # other way instead; reduced costs only see the difference.
        a = pos.item(e_sub)
        sz = size[e_sub]
        du = delta if e_sub < m else -delta
        if 2 * sz <= self.N:
            seg = self.order[a : a + sz]
        else:
            seg = np.concatenate((self.order[:a], self.order[a + sz :]))
            du = -du
        is_src = seg < m
        self.u[seg[is_src]] += du
        self.v[seg[~is_src] - m] -= du
        self.iterations += 1

    def _rehang(self, chain: list[int], e_root: int, theta: float, lca: int) -> None:
        """Re-root the detached subtree at chain[0] and attach it under e_root.

        ``chain`` runs from the new subtree root up to the node whose parent
        arc is leaving; ``lca`` is the top of the pivot cycle.  Re-rooting
        reverses the chain; the new preorder is assembled from contiguous
        slices of the old one in a single splice.
        """
        order, pos, size, parent, flow = self.order, self.pos, self.size, self.parent, self.flow
        k = len(chain) - 1
        starts = [pos.item(c) for c in chain]
        old_sz = [size[c] for c in chain]
        ends = [starts[t] + old_sz[t] for t in range(k + 1)]
        a, b = starts[k], ends[k]
        total = b - a

        if k == 0:
            seg = order[a:b].copy()
        else:
            pieces = [order[starts[0] : ends[0]]]
            for t in range(1, k + 1):
                pieces.append(order[starts[t] : starts[t - 1]])
                pieces.append(order[ends[t - 1] : ends[t]])
            seg = np.concatenate(pieces)

        # Chain bookkeeping: the arc between chain[t-1] and chain[t] now
        # hangs at chain[t]; its flow was stored at chain[t-1].
        carried = [flow[c] for c in chain]
        old_parent = parent[chain[k]]
        parent[chain[0]] = e_root
        flow[chain[0]] = theta
        size[chain[0]] = total
        for t in range(1, k + 1):
            parent[chain[t]] = chain[t - 1]
            flow[chain[t]] = carried[t - 1]
            size[chain[t]] = total - old_sz[t - 1]

        # The subtree moves from below old_parent to below e_root; both paths
        # meet at the cycle top, above which the sizes do not change.
        node = old_parent
        while node != lca:
            size[node] -= total
            node = parent[node]
        node = e_root
        while node != lca:
            size[node] += total
            node = parent[node]

        p = pos.item(e_root)
        if p >= b:
            order[a : p + 1 - total] = order[b : p + 1].copy()
            order[p + 1 - total : p + 1] = seg
            lo, hi = a, p + 1
        else:  # p + 1 <= a (e_root cannot sit inside the detached segment)
            order[p + 1 + total : b] = order[p + 1 : a].copy()
            order[p + 1 : p + 1 + total] = seg
            lo, hi = p + 1, b
        pos[order[lo:hi]] = self._arange[lo:hi]

    # -- pricing -----------------------------------------------------------

    def _refill(self) -> np.ndarray:
        """One full scan; the most negative arcs as a candidate pool.

        The pool is sorted by (reduced cost, flat index), so ties resolve to
        the lexicographically smallest (i, j).
        """
        take = self.refill_size
        n = self.n
        step = self._scan_buf.shape[0]
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        # Row blocks keep the scratch buffer cache-resident across the two
        # subtractions and the comparison.
        for r0 in range(0, self.m, step):
            r1 = min(r0 + step, self.m)
            red = self._scan_buf[: r1 - r0]
            np.subtract(self.cost[r0:r1], self.u[r0:r1, None], out=red)
            red -= self.v
            flat = red.reshape(-1)
            hit = np.flatnonzero(flat < -self.tol)
            if hit.size:
                idx_parts.append(hit + r0 * n)
                val_parts.append(flat[hit])
        if not idx_parts:
            return np.zeros(0, dtype=np.int64)
        idx = np.concatenate(idx_parts).astype(np.int64, copy=False)
        vals = np.concatenate(val_parts)
        if idx.size > take:
            part = np.argpartition(vals, take - 1)[:take]
            idx = idx[part]
            vals = vals[part]
        sel = np.lexsort((idx, vals))
        return idx[sel]

    def _bland_arc(self) -> Optional[tuple[int, int]]:
        """First arc in lexicographic (i, j) order with negative reduced cost."""
        for i in range(self.m):
            red = self.cost[i] - self.u[i] - self.v
            js = np.nonzero(red < -self.tol)[0]
            if js.size:
                return i, int(js[0])
        return None

    # -- driver ------------------------------------------------------------

    def _drain_pool(self, pool: np.ndarray, batch: int, deadline: int) -> None:
        """Pivot on pool arcs until none of them price negative.

        The pool is re-priced wholesale between batches: arcs flip in and out
        of eligibility as the duals move, so nothing is discarded early.
        """
        n = self.n
        pool_rows = pool // n
        pool_cols = pool - pool_rows * n
        # Gathered once: re-pricing then reads the pool's costs contiguously
        # instead of scattering into the full cost matrix every batch.
        pool_cost = self.cost.reshape(-1)[pool]
        while True:
            if self.iterations > deadline:
                return
            red = pool_cost - self.u[pool_rows]
            red -= self.v[pool_cols]
            alive = np.nonzero(red < -self.tol)[0]
            if alive.size == 0:
                return
            if alive.size * 8 < pool.size:
                # Almost everything priced out; shrink the pool so the
                # wholesale re-pricing stays cheap.  Dropped arcs are caught
                # by the next full refill if they come back.
                pool = pool[alive]
                pool_rows = pool_rows[alive]
                pool_cols = pool_cols[alive]
                pool_cost = pool_cost[alive]
                red = red[alive]
                alive = np.arange(pool.size)
            if alive.size > batch:
                take = alive[np.argpartition(red[alive], batch - 1)[:batch]]
            else:
                take = alive
            sel = take[np.lexsort((pool[take], red[take]))]
            for flat in pool[sel].tolist():
                i, j = flat // n, flat % n
                if self.cost[i, j] - self.u[i] - self.v[j] < -self.tol:
                    self._pivot(i, j)

    def _neighbor_arcs(self) -> Optional[np.ndarray]:
        """Flat indices of a sparse warm-start arc set: mutual nearest
        neighbours between the two real atom clouds plus all reservoir arcs."""
        m_real, n_real = self.m - 1, self.n - 1
        if m_real * n_real <= 65536:
            return None
        from scipy.spatial import cKDTree

        k = min(32, n_real)
        tree_nu = cKDTree(self.points_nu)
        _, nbr = tree_nu.query(self.points_mu, k=k)
        nbr = np.asarray(nbr, dtype=np.int64).reshape(m_real, -1)
        rows = np.repeat(np.arange(m_real, dtype=np.int64), nbr.shape[1])
        arcs_fwd = rows * self.n + nbr.reshape(-1)
        k2 = min(32, m_real)
        tree_mu = cKDTree(self.points_mu)
        _, nbr2 = tree_mu.query(self.points_nu, k=k2)
        nbr2 = np.asarray(nbr2, dtype=np.int64).reshape(n_real, -1)
        cols = np.repeat(np.arange(n_real, dtype=np.int64), nbr2.shape[1])
        arcs_bwd = nbr2.reshape(-1) * self.n + cols
        res_row = np.int64(m_real) * self.n + np.arange(self.n, dtype=np.int64)
        res_col = np.arange(m_real, dtype=np.int64) * self.n + (self.n - 1)
        return np.unique(np.concatenate([arcs_fwd, arcs_bwd, res_row, res_col]))

    def run(self) -> None:
        bland_after = 500 * self.N + 100_000
        hard_cap = 10_000_000
        batch = 128

        # Phase 1: drive the basis close to optimal on a sparse arc set where
        # re-pricing is nearly free.
        warm = self._neighbor_arcs()
        if warm is not None:
            self._drain_pool(warm, batch, bland_after)

        # Phase 2: full pricing until a complete scan certifies optimality.
        while True:
            if self.iterations > hard_cap:
                raise RuntimeError("transportation simplex exceeded the pivot cap")
            if self.iterations > bland_after:
                arc = self._bland_arc()
                if arc is None:
                    break
                self._pivot(*arc)
                continue
            # Incremental dual updates accumulate rounding over many pivots;
            # refresh them before scanning and certifying optimality.
            self._restore_potentials()
            pool = self._refill()
            if pool.size == 0:
                break
            self._drain_pool(pool, batch, bland_after)

        self._restore_flows()
        self._restore_potentials()

    def _restore_flows(self) -> None:
        """Recompute basic flows exactly from the supplies along the final tree."""
        residual = np.concatenate([self.supply, self.demand]).tolist()
        parent = self.parent
        flow = self.flow
        root = self.root
        for node in self.order.tolist()[::-1]:
            if node == root:
                continue
            f = residual[node]
            flow[node] = f
            residual[parent[node]] -= f
        worst = min(flow)
        if worst < 0.0:
            if worst < -1e-9 * max(1.0, float(self.supply.sum())):
                raise RuntimeError(f"negative basic flow {worst} after restoration")
            for node, f in enumerate(flow):
                if f < 0.0:
                    flow[node] = 0.0

    def _restore_potentials(self) -> None:
        self.u[self.root] = 0.0
        m = self.m
        cost = self.cost
        parent = self.parent
        u, v = self.u, self.v
        for node in self.order.tolist()[1:]:
            par = parent[node]
            if node < m:
                j = par - m
                u[node] = cost[node, j] - v[j]
            else:
                j = node - m
                v[j] = cost[par, j] - u[par]


# ---------------------------------------------------------------------------
# Public solver API
# ---------------------------------------------------------------------------

def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> SolveReport:
    """Exact minimiser of the reservoir transport LP between two measures.

    Returns the optimal cost, an optimal vertex plan, optimal dual potentials
    satisfying complementary slackness, the pivot count, and the primal-dual
    gap (which certifies optimality to rounding accuracy).
    """
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")
    m, n = mu.n_atoms, nu.n_atoms
    res_mu = cost.reservoir_cost(mu)
    res_nu = cost.reservoir_cost(nu)
    C = np.zeros((m + 1, n + 1))
    C[:m, :n] = cost.pair_matrix(mu, nu)
    C[:m, n] = res_mu
    C[m, :n] = res_nu
    C[m, n] = 0.0

    mass_mu = mu.total_mass()
    mass_nu = nu.total_mass()
    supply = np.concatenate([mu.weights, [mass_nu]])
    demand = np.concatenate([nu.weights, [mass_mu]])

    sx = _Simplex(C, supply, demand, points_mu=mu.positions, points_nu=nu.positions)
    sx.run()

    # Each non-root tree node carries the flow on the arc to its parent; a
    # source's parent is a sink and vice versa.  Arcs keep node order.
    node = np.arange(sx.N)
    parent = np.array(sx.parent)
    flow = np.array(sx.flow)
    is_src = node < sx.m
    rows = np.where(is_src, node, parent)
    cols = np.where(is_src, parent, node) - sx.m
    live = (flow > 0.0) & (node != sx.root)
    direct = live & (rows < m) & (cols < n)
    into = live & (rows < m) & (cols == n)
    out_of = live & (rows == m) & (cols < n)
    # rows == m and cols == n: reservoir self-loop, dropped by convention
    to_res = np.zeros(m)
    from_res = np.zeros(n)
    to_res[rows[into]] = flow[into]
    from_res[cols[out_of]] = flow[out_of]
    direct_r, direct_c, direct_v = rows[direct], cols[direct], flow[direct]

    plan = TransportPlan(
        n_mu=m,
        n_nu=n,
        direct_rows=direct_r,
        direct_cols=direct_c,
        direct_vals=direct_v,
        to_reservoir=to_res,
        from_reservoir=from_res,
    )

    # Shift tree potentials so both reservoir nodes sit exactly at zero; the
    # result is feasible and optimal for the reservoir LP.
    phi = sx.u[:m] + sx.v[n]
    psi = sx.v[:n] + sx.u[m]
    duals = DualPotentials(phi=phi, psi=psi, p=cost.p)

    terms = (C[direct_r, direct_c] * direct_v).tolist()
    terms.extend((to_res * res_mu).tolist())
    terms.extend((from_res * res_nu).tolist())
    value = math.fsum(terms)
    dual = math.fsum((mu.weights * phi).tolist()) + math.fsum((nu.weights * psi).tolist())
    return SolveReport(value=value, plan=plan, duals=duals, iterations=sx.iterations, gap=abs(value - dual))


def distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """The transport metric: p-th root of the optimal cost."""
    return solve(mu, nu, CostSpec(p)).distance


def verify_plan(
    plan: TransportPlan,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = 1e-12,
) -> list[PlanViolation]:
    """Check the marginal identities that make a plan admissible.

    Empty list iff every mu row sum and nu column sum matches the atom weight
    within ``tol`` (absolute) and no flow is negative.
    """
    out: list[PlanViolation] = []
    if plan.n_mu != mu.n_atoms or plan.n_nu != nu.n_atoms:
        raise ValueError("plan shape does not match the measures")
    for arr in (plan.direct_vals, plan.to_reservoir, plan.from_reservoir):
        for k in np.nonzero(np.asarray(arr) < -tol)[0]:
            out.append(PlanViolation("negativity", int(k), float(arr[k])))
    row = plan.mu_marginal()
    col = plan.nu_marginal()
    for i in np.nonzero(np.abs(row - mu.weights) > tol)[0]:
        out.append(PlanViolation("mu", int(i), float(row[i] - mu.weights[i])))
    for j in np.nonzero(np.abs(col - nu.weights) > tol)[0]:
        out.append(PlanViolation("nu", int(j), float(col[j] - nu.weights[j])))
    return out


def k_support_check(
    plan: TransportPlan,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    tol: float = 1e-9,
    mass_tol: float = 1e-12,
) -> list[tuple[int, int, float]]:
    """Arcs of the plan that leave the cheap set {|x-y|^p <= |x|^p + |y|^p}.

    Optimal plans never charge such arcs (rerouting through the reservoir
    would be strictly cheaper), so the list is empty for solver output.
    Returns (i, j, excess) triples for arcs with mass above ``mass_tol``.
    """
    cost = CostSpec(p)
    keep = plan.direct_vals > mass_tol
    rows, cols = plan.direct_rows[keep], plan.direct_cols[keep]
    direct = _pow(np.linalg.norm(mu.positions[rows] - nu.positions[cols], axis=1), cost.p)
    through = cost.reservoir_cost(mu)[rows] + cost.reservoir_cost(nu)[cols]
    bad = direct > through + tol
    return [
        (int(i), int(j), float(e))
        for i, j, e in zip(rows[bad], cols[bad], (direct - through)[bad])
    ]


def dual_value(duals: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Dual objective of a feasible potential pair; rejects infeasible input.

    The value never exceeds the primal optimum, with equality for solver duals.
    """
    bad = duals.violations(mu, nu)
    if bad:
        raise ValueError("infeasible dual potentials: " + bad[0])
    return math.fsum((mu.weights * duals.phi).tolist()) + math.fsum(
        (nu.weights * duals.psi).tolist()
    )


def brute_force_unit(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exhaustive oracle for unit-weight instances with at most 6 atoms per side.

    Enumerates every injective partial matching between the two atom sets;
    unmatched atoms trade with the reservoir.  Vertices of the transportation
    polytope are integral for unit supplies, so this minimum equals the LP
    optimum.
    """
    p = _check_p(p)
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")
    m, n = mu.n_atoms, nu.n_atoms
    if m > 6 or n > 6:
        raise ValueError("brute force oracle accepts at most 6 atoms per side")
    for w in itertools.chain(mu.weights, nu.weights):
        if abs(w - 1.0) > 1e-12:
            raise ValueError("brute force oracle requires unit atom weights")

    cost = CostSpec(p)
    res_mu = cost.reservoir_cost(mu)
    res_nu = cost.reservoir_cost(nu)
    pair = cost.pair_matrix(mu, nu)
    base = math.fsum(res_mu.tolist()) + math.fsum(res_nu.tolist())

    best = base
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            row_gain = sum(res_mu[i] for i in rows)
            for cols in itertools.permutations(range(n), k):
                direct = sum(pair[i, j] for i, j in zip(rows, cols))
                col_gain = sum(res_nu[j] for j in cols)
                cand = base - row_gain - col_gain + direct
                if cand < best:
                    best = cand
    return best
