"""Exact optimal transport between discrete Levy measures with a reservoir at 0.

The problem: move the mass of ``mu`` onto ``nu`` at cost |x - y|^p per unit,
where the origin acts as an infinite reservoir that can absorb or emit any
amount of mass (paying only the movement cost |x|^p to reach it).  Marginals
are only prescribed away from the origin, so the two measures may have
different total masses.

The solver reduces this to a balanced transportation problem by appending a
virtual reservoir atom of mass |nu| to the mu side and one of mass |mu| to
the nu side, with costs c(x, 0) = |x|^p, c(0, y) = |y|^p and c(0, 0) = 0.
In d = 1 no optimal arc crosses the origin, and on each half-line the
monotone (quantile) coupling with the origin as reservoir is optimal:
``solve`` merges the sorted halves (``_monotone_merge``) and reads the duals
off that staircase basis.  In higher dimensions it first tries the
ray-by-ray coupling, certified by the lifted duals of the radial problem,
and else runs a primal transportation simplex on the complete bipartite
graph.  The simplex computes costs from the atom positions a row block at a
time (``_ReservoirCost``): it keeps the (m+1) x (n+1) cost matrix only when
that fits in one block, and otherwise only the costs of its candidate arcs
and tree arcs.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

# Above this many real arcs (m * n) the simplex warm-starts from k-NN arcs and
# prices its cost blocks with SciPy's cdist, which pay for their import there;
# at or below it the greedy start takes all arcs, priced with NumPy.
KNN_ARCS = 65536

# Ray directions are snapped to this grid before atoms are grouped by ray.
_RAY_GRID = 2.0**32

# Allowance of the ray certificate, relative to the gross cost G of the ray
# coupling: the sum over its segments of mass * (|x| + |y|)^p, which bounds
# every term of U and of R.  The two sides differ only by rounding.  U prices
# a segment from the atom positions and R from the radii; a stored atom lies
# within a few ulps of its ray, so the two prices differ by at most about
# d + p + 3 ulps of (|x| + |y|)^p.  Each segment mass is within an ulp of its
# exact value (``_monotone_merge``).  64 ulps of G (2^-52 each) covers both
# with room; |U - R| measured at most 0.12 ulps of G on the kernel, heavy and
# d = 3 kernel grids at p = 1, 1.5 and 2.  Since R is a lower bound and U the
# cost of a feasible plan, a certified U is within this allowance of the
# optimum.
RAY_CERT_TOL = 2.0**-46


def _sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k (x[..., k] - y[..., k])^2, broadcast over the leading axes.

    The squares are added one coordinate at a time, k = 0, ..., d-1, which is
    the order cdist's "sqeuclidean" adds them in, so the two agree bit for bit.
    """
    sq = x[..., 0] - y[..., 0]
    sq *= sq
    for k in range(1, x.shape[-1]):
        diff = x[..., k] - y[..., k]
        diff *= diff
        sq += diff
    return sq


@dataclass(frozen=True)
class CostSpec:
    """Movement cost |x - y|^p together with the implied reservoir costs."""

    p: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_p(self.p))

    def pairs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """|x_i - y_j|^p between two arrays of positions, one row per x."""
        return self._power(_sq_dist(x[:, None, :], y[None, :, :]))

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """|x_k - y_k|^p row by row; entry k has the bits of ``pairs(x, y)[k, k]``."""
        return self._power(_sq_dist(x, y))

    def _power(self, sq: np.ndarray) -> np.ndarray:
        """|x - y|^p from a fresh array of |x - y|^2 (overwritten), as
        cdist's "euclidean" then ``_pow``."""
        return sq if self.p == 2.0 else _pow(np.sqrt(sq, out=sq), self.p)

    def pair_matrix(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
        """Dense |x_i - y_j|^p over the atom grids."""
        return self.pairs(mu.positions, nu.positions)

    def reservoir_cost(self, mu: DiscreteMeasure) -> np.ndarray:
        """Per-atom cost |z|^p of moving to (or from) the reservoir."""
        return _pow(mu.radii, self.p)


class _ReservoirCost:
    """The (m+1) x (n+1) cost matrix of the reservoir reduction, by row blocks.

    Row i < m holds |x_i - y_j|^p and, in its last column, |x_i|^p; row m is
    the reservoir row |y_j|^p, with 0 at the corner.  Every cost the solver
    and the dual audit read comes from ``rows``, a block at a time, so the
    dense matrix is never held, unless it fits in one block: then ``blocks``
    builds it once and hands out the same array on every pass.  Each entry
    is computed on its own, so a block has the bits of the same rows of the
    dense matrix.  Above ``KNN_ARCS`` real arcs the pairs come from cdist,
    which has the bits of ``CostSpec.pairs`` and is faster on long rows;
    the choice is made once, so every block of an instance uses one kernel.
    """

    BLOCK = 65536  # elements per row block of a full pass

    def __init__(self, spec: CostSpec, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.spec = spec
        self.x, self.y = mu.positions, nu.positions
        self.res_x, self.res_y = spec.reservoir_cost(mu), spec.reservoir_cost(nu)
        self.res_row = np.append(self.res_y, 0.0)
        self.m, self.n = mu.n_atoms + 1, nu.n_atoms + 1
        self.step = min(self.m, max(1, self.BLOCK // self.n))
        self.above_knn = mu.n_atoms * nu.n_atoms > KNN_ARCS
        self._whole: Optional[np.ndarray] = None

    def _pairs(self, x: np.ndarray) -> np.ndarray:
        if not self.above_knn:
            return self.spec.pairs(x, self.y)
        from scipy.spatial.distance import cdist

        if self.spec.p == 2.0:
            return cdist(x, self.y, "sqeuclidean")
        return _pow(cdist(x, self.y, "euclidean"), self.spec.p)

    def rows(self, r0: int, r1: int, step: int = 1) -> np.ndarray:
        """Rows range(r0, r1, step) of the matrix, as a fresh array."""
        stop = min(r1, self.m - 1)
        k = len(range(r0, stop, step))
        out = np.empty((len(range(r0, r1, step)), self.n))
        if k:
            out[:k, :-1] = self._pairs(self.x[r0:stop:step])
            out[:k, -1] = self.res_x[r0:stop:step]
        if k < len(out):  # the reservoir row is the last one picked
            out[k] = self.res_row
        return out

    def blocks(self):
        """(first row, block) over the whole matrix, top to bottom.

        Blocks are read-only to the caller: a matrix of one block is kept
        and handed out again by the next pass.
        """
        if self.step == self.m:
            if self._whole is None:
                self._whole = self.rows(0, self.m)
                self._whole.setflags(write=False)
            yield 0, self._whole
            return
        for r0 in range(0, self.m, self.step):
            yield r0, self.rows(r0, min(r0 + self.step, self.m))


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
        m, n = mu.n_atoms, nu.n_atoms
        for r0, block in _ReservoirCost(cost, mu, nu).blocks():
            pair = block[: m - r0, :n]
            slack = pair - self.phi[r0 : r0 + len(pair), None] - self.psi[None, :]
            for i, j in np.argwhere(slack < -tol):
                out.append(f"phi[{r0 + i}] + psi[{j}] exceeds |x-y|^p by {float(-slack[i, j])!r}")
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
    path: str  # the method that found it, "line", "rays" or "simplex" (see solve); not in to_dict

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

    ``costs`` is a nonempty row block of the cost matrix.
    """
    scale = float(costs.max())
    if not math.isfinite(scale):
        raise ValueError(f"transport cost overflows to {scale!r}; rescale the atom coordinates")
    return max(1.0, scale)


class _Simplex:
    """Primal transportation simplex specialised to the reservoir reduction.

    Sources are the rows of the cost matrix (the last row is the virtual
    reservoir source), sinks its columns (last column virtual).  The matrix
    is held only when it fits in one block: ``costs`` computes it a row
    block at a time from the atom positions, for one initial pass (the cost
    scale and the warm pool's costs), for each full scan, the greedy start
    and Bland's rule.  A pool carries the cost of each of its arcs, and the
    tree the cost of each of its arcs next to its flow, so pivots and tree
    potentials never look a cost up.

    The initial spanning tree hangs a forest of greedy atom-to-atom arcs
    under the reservoir, so that what the forest does not move goes through
    the origin.  Below the k-NN threshold the forest is a greedy pass over
    the arcs that beat the reservoir.  Above it the pass sees only the warm
    arcs that join coincident atoms, so common mass at a shared site stays
    in place and each component is one arc; without coincident atoms the
    forest is empty, and the tree is the star that projects both measures
    onto the origin.

    The spanning tree is kept as a preorder sequence (``order``/``pos``) with
    subtree sizes, so each pivot moves contiguous array segments and shifts
    the node potentials of one preorder segment with a single add.  The
    preorder, the positions and the node potentials live in ``array.array``
    buffers (``_order_a``, ``_pos_a``, ``_pot_a``), and ``order``, ``pos``,
    ``pot``, ``u`` and ``w`` are NumPy views of the same memory.  Scalar
    reads go through the buffers, which index to plain Python numbers, and
    the preorder splice through ``_order_v``, a memoryview that slices
    without a copy and moves slices with a memmove; the vector work, the
    potential shift, the ``pos`` rewrite and pool pricing, goes through the
    views.  A copy (``copy.deepcopy``) rebuilds its views on its own
    buffers.  Entering arcs come first from a sparse nearest-neighbour
    warm-start pool, then from candidate pools that a full scan fills with
    the eligible and the near-eligible arcs.  A pool is priced in major and
    minor passes: a major pass re-prices all of it and lists its eligible
    arcs, minor rounds enter batches from that list and re-price only the
    list, and the next major pass runs once the list has thinned out.  So
    an arc that turns eligible is entered without another scan; a full scan
    is needed only when the pool runs dry, and the last one, against freshly
    recomputed tree potentials, certifies optimality.
    """

    def __init__(self, costs: _ReservoirCost, supply: np.ndarray, demand: np.ndarray):
        self.costs = costs
        self.supply = supply
        self.demand = demand
        self.m, self.n = costs.m, costs.n
        self.N = self.m + self.n  # node ids: sources 0..m-1, sinks m..m+n-1
        self.root = self.m - 1  # virtual source
        self.vsink = self.N - 1  # virtual sink
        self.iterations = 0
        # Past this many pivots, pool pricing gives way to Bland's rule.
        self.bland_after = 500 * self.N + 100_000

        # One potential per node: pot[i] = u_i for sources, pot[m + j] = -v_j
        # for sinks, so arc (i, j) prices at c_ij - pot[i] + pot[m + j] and a
        # dual shift is one add over a preorder segment.  _build_tree binds
        # the views pot, u (sources) and w (sinks) of this buffer.
        self._pot_a = array("d", bytes(8 * self.N))
        self.warm = self._neighbor_arcs()
        left = np.concatenate([supply, demand]).tolist()
        self._build_tree(self._greedy_forest(*self._initial_pass(), left), left)

        # Candidate pool capacity for major/minor pricing.
        self.refill_size = int(min(self.m * self.n, max(4096, 16 * self.N)))
        self._scan_buf = np.empty((costs.step, self.n))
        self._arange = np.arange(self.N, dtype=np.int64)

    def _initial_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One pass over the cost matrix; the greedy start's candidate arcs.

        Sets ``tol`` from the cost scale and, above the k-NN threshold,
        ``warm_cost`` to the warm pool's costs.  Returns the candidates'
        costs, their reduced costs against the star tree's duals,
        c_ij - |x_i|^p - |y_j|^p (0 on the reservoir arcs), and their rows
        and columns, in increasing flat order.  Below the threshold (at most
        ``KNN_ARCS`` real arcs) the candidates are all arcs.  Above it they are the
        warm arcs of cost at most ``tol``, which join coincident atoms: a
        greedy pass over them is a matching, so its tree stays shallow.
        """
        n = self.n
        warm = self.warm
        self.warm_cost = None if warm is None else np.empty(warm.size)
        scale = 1.0
        blocks = []
        hi = 0
        for r0, block in self.costs.blocks():
            scale = max(scale, _cost_scale(block))
            if warm is None:
                blocks.append(block)
            else:
                # The warm pool is sorted, so each block's arcs are one slice.
                lo, hi = hi, int(np.searchsorted(warm, (r0 + len(block)) * n))
                self.warm_cost[lo:hi] = block.reshape(-1)[warm[lo:hi] - r0 * n]
        self.tol = PIVOT_TOL * scale
        if warm is None:
            cost = np.concatenate(blocks).reshape(-1)
            flat = np.arange(cost.size)
        else:
            near = self.warm_cost <= self.tol
            flat, cost = warm[near], self.warm_cost[near]
        rows, cols = np.divmod(flat, n)
        # c_ij minus the row's reservoir column (0 on the reservoir row) and the reservoir row
        return cost, cost - np.append(self.costs.res_x, 0.0)[rows] - self.costs.res_row[cols], rows, cols

    # -- initial tree ------------------------------------------------------

    def _greedy_forest(
        self, cost: np.ndarray, red: np.ndarray, rows: np.ndarray, cols: np.ndarray, left: list[float]
    ) -> list[tuple[int, int, float, float]]:
        """Greedy arcs (i, j, flow, cost) over the cheap candidate arcs.

        ``cost``, ``red``, ``rows`` and ``cols`` are the candidates' costs,
        reduced costs, rows and columns from ``_initial_pass``.  A candidate
        is cheap when it prices negative against the star tree's duals,
        c_ij - |x_i|^p - |y_j|^p < -tol, which no reservoir arc does.  Arcs
        are taken in (reduced cost, flat index) order and each moves
        min(supply left, demand left), so it exhausts at least one endpoint.
        With no cheap candidate the forest is empty.  ``left`` (supplies then
        demands, by node id) is drawn down in place.
        """
        sink0 = self.m  # first sink id
        cand = np.flatnonzero(red < -self.tol)
        arcs: list[tuple[int, int, float, float]] = []
        # The cheapest arcs go first, a batch at a time; after each batch the
        # arcs at an exhausted node are dropped unseen, as they stay useless.
        # Ties at a batch's threshold all fall in the batch, and candidates
        # come in flat order, so the order is exactly (reduced cost, flat index).
        batch = 2 * (self.N - 2)  # twice the number of real atoms
        while cand.size:
            vals = red[cand]
            if cand.size > batch:
                first = vals <= np.partition(vals, batch - 1)[batch - 1]
                take, cand, vals = cand[first], cand[~first], vals[first]
            else:
                take, cand = cand, cand[:0]
            take = take[np.argsort(vals, kind="stable")]
            for i, j, c in zip(rows[take].tolist(), cols[take].tolist(), cost[take].tolist()):
                s, d = left[i], left[sink0 + j]
                if s == 0.0 or d == 0.0:
                    continue
                f = min(s, d)
                arcs.append((i, j, f, c))
                left[i] = s - f
                left[sink0 + j] = d - f
            live = np.array(left) > 0.0
            cand = cand[live[rows[cand]] & live[sink0 + cols[cand]]]
        return arcs

    def _build_tree(self, arcs: list[tuple[int, int, float, float]], left: list[float]) -> None:
        """Spanning tree from a forest of real arcs, with tree potentials.

        Each component of the forest hangs under the reservoir at its one node
        with mass ``left`` (at any node if none is left): sources under the
        virtual sink, sinks under the root.  Attach arcs carry the mass left,
        forest arcs their own flow, and root -> virtual sink the mass the
        forest moves, so the flows satisfy the marginals.  With no arcs this
        is the star that routes everything through the reservoir.  Preorder:
        root, the sink-attached components, the virtual sink, then the
        source-attached components, each group by attach node.
        """
        m, N, root, vsink = self.m, self.N, self.root, self.vsink
        adj: list[list[tuple[int, float, float]]] = [[] for _ in range(N)]
        for i, j, f, c in arcs:
            adj[i].append((m + j, f, c))
            adj[m + j].append((i, f, c))
        # parent/flow/arc_cost/size are plain lists: the pivot loops touch
        # them one scalar at a time.  flow[node] and arc_cost[node] belong to
        # the arc node - parent.
        parent = [-1] * N
        flow = [0.0] * N
        arc_cost = [0.0] * N
        parent[vsink] = root
        flow[vsink] = math.fsum(f for _, _, f, _ in arcs)

        # A component has at most one node with mass left: merging two
        # components spends the leftover of at least one of them.
        res_x, res_y = self.costs.res_x, self.costs.res_y
        seen = [False] * N
        attach_sink: list[int] = []
        attach_src: list[int] = []
        for start in itertools.chain(range(m, vsink), range(root)):
            if seen[start]:
                continue
            seen[start] = True
            at, stack = start, [start]
            while stack:
                node = stack.pop()
                if left[node] > 0.0:
                    at = node
                for nb, _, _ in adj[node]:
                    if not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
            if at < m:
                attach_src.append(at)
                parent[at], arc_cost[at] = vsink, float(res_x[at])
            else:
                attach_sink.append(at)
                parent[at], arc_cost[at] = root, float(res_y[at - m])
            flow[at] = left[at]

        order = [root]
        for at in sorted(attach_sink) + [vsink] + sorted(attach_src):
            stack = [at]
            while stack:
                node = stack.pop()
                order.append(node)
                for nb, f, c in reversed(adj[node]):
                    if nb != parent[node]:
                        parent[nb] = node
                        flow[nb] = f
                        arc_cost[nb] = c
                        stack.append(nb)
        size = [1] * N
        for node in reversed(order[1:]):
            size[parent[node]] += size[node]

        self.parent, self.flow, self.arc_cost, self.size = parent, flow, arc_cost, size
        self._order_a, self._pos_a = array("q", order), array("q", bytes(8 * N))
        self._bind_views()
        self.pos[self.order] = np.arange(N)
        self._restore_potentials()

    _VIEWS = ("order", "pos", "pot", "u", "w", "_order_v")

    def _bind_views(self) -> None:
        """NumPy views ``order``, ``pos``, ``pot``, ``u`` and ``w`` of the
        buffers, and ``_order_v``, a memoryview of ``_order_a``."""
        self._order_v = memoryview(self._order_a)
        self.order = np.frombuffer(self._order_a, dtype=np.int64)
        self.pos = np.frombuffer(self._pos_a, dtype=np.int64)
        self.pot = np.frombuffer(self._pot_a, dtype=np.float64)
        self.u = self.pot[: self.m]
        self.w = self.pot[self.m :]

    def __getstate__(self) -> dict:
        # a copied view would not share its copied buffer: rebuild the views
        return {k: v for k, v in self.__dict__.items() if k not in self._VIEWS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    # -- tree mechanics ----------------------------------------------------

    def _pivot(self, i: int, j: int, cost: float) -> None:
        """Enter arc (i, j), of cost ``cost``, into the tree, in one walk of its cycle.

        The climbs from both endpoints to their lowest common ancestor give
        the cycle as two chains, ``up_s`` and ``up_t``, each from an endpoint
        up to just below that ancestor.  Every later step works on these
        lists: the leaving arc, the flow change, the re-rooted chain and the
        subtree sizes on both paths, which change by the detached size up to
        the cycle top and not above it.  The re-rooted preorder segment is
        one ``bytes.join`` of 2k + 1 slices of ``_order_v``, a memoryview of
        the preorder buffer, for a re-rooted chain of k + 1 nodes; the nodes
        between it and its new place shift over by one memmove, a slice
        assignment of the view to itself.  Only the ``pos`` rewrite of the
        moved range and the potential shift go through the NumPy views.
        """
        s_node, t_node = i, self.m + j
        pot_a = self._pot_a
        delta = cost - pot_a[s_node] + pot_a[t_node]
        m, pos_a, size, parent, flow, arc_cost = self.m, self._pos_a, self.size, self.parent, self.flow, self.arc_cost

        # Climb from each endpoint to the lowest common ancestor.
        up_s: list[int] = []
        pt = pos_a[t_node]
        node = s_node
        while True:
            pn = pos_a[node]
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
        # arc is the lexicographically smallest (i, j) among the tightest;
        # arcs are built only to break a tie.
        theta, leave_chain, leave_k = math.inf, up_s, -1
        for chain in (up_s, up_t):
            for k in range(0, len(chain), 2):
                f = flow[chain[k]]
                if f < theta:
                    theta, leave_chain, leave_k = f, chain, k
                elif f == theta:
                    node, best = chain[k], leave_chain[leave_k]
                    arc = (node, parent[node] - m) if node < m else (parent[node], node - m)
                    if arc < ((best, parent[best] - m) if best < m else (parent[best], best - m)):
                        leave_chain, leave_k = chain, k
        for chain in (up_s, up_t):
            for k in range(0, len(chain), 2):
                flow[chain[k]] -= theta
            for k in range(1, len(chain), 2):
                flow[chain[k]] += theta

        # The leaving arc splits off the subtree rooted at it; the entering
        # arc re-roots that subtree at its inside endpoint e_sub = chain[0]
        # and hangs it under e_root.  The new preorder segment is chain[0]'s
        # old one, then for t = 1..k the parts of chain[t]'s old segment
        # before and after chain[t - 1]'s.
        if leave_chain is up_s:
            e_sub, e_root, other = s_node, t_node, up_t
        else:
            e_sub, e_root, other = t_node, s_node, up_s
        chain, k = leave_chain[: leave_k + 1], leave_k
        starts = [pos_a[c] for c in chain]
        old_sz = [size[c] for c in chain]
        ends = [x + sz for x, sz in zip(starts, old_sz)]
        ov = self._order_v
        pieces = [ov[starts[0] : ends[0]]]
        for t in range(1, k + 1):
            pieces += ov[starts[t] : starts[t - 1]], ov[ends[t - 1] : ends[t]]
        seg = memoryview(b"".join(pieces)).cast("q")
        a, b = starts[k], ends[k]
        total = b - a

        # Chain bookkeeping: the arc between chain[t-1] and chain[t] now
        # hangs at chain[t]; its flow and cost were stored at chain[t-1].
        # Top down, each node is read before it is overwritten.
        for t in range(k, 0, -1):
            node, below = chain[t], chain[t - 1]
            parent[node] = below
            flow[node] = flow[below]
            arc_cost[node] = arc_cost[below]
            size[node] = total - old_sz[t - 1]
        parent[e_sub], flow[e_sub], arc_cost[e_sub], size[e_sub] = e_root, theta, cost, total
        # The subtree leaves the path above it and joins the path above e_root.
        for node in leave_chain[k + 1 :]:
            size[node] -= total
        for node in other:
            size[node] += total

        # The new segment goes right after e_root, which sits outside the
        # detached one; the nodes in between shift over by its length, in
        # one memmove.
        p = pos_a[e_root]
        if p >= b:
            ov[a : p + 1 - total] = ov[b : p + 1]
            ov[p + 1 - total : p + 1] = seg
            lo, hi = a, p + 1
        else:
            ov[p + 1 + total : b] = ov[p + 1 : a]
            ov[p + 1 : p + 1 + total] = seg
            lo, hi = p + 1, b
        self.pos[self.order[lo:hi]] = self._arange[lo:hi]

        # Dual update: every node potential in the detached subtree shifts by
        # the entering arc's reduced cost, signed by the side of its root.
        # When the detached side is the larger one, shift the complement the
        # other way instead; reduced costs only see the difference.
        a = pos_a[e_sub]
        du = delta if e_sub < m else -delta
        order, pot = self.order, self.pot
        if 2 * total <= self.N:
            pot[order[a : a + total]] += du
        else:
            pot[order[:a]] -= du
            pot[order[a + total :]] -= du
        self.iterations += 1

    # -- pricing -----------------------------------------------------------

    def _refill(self) -> tuple[np.ndarray, np.ndarray, float]:
        """One full scan; the eligible and near-eligible arcs as a pool.

        Admits every arc that prices below theta = max(-tol, q), where q is
        the reduced cost below which about ``refill_size`` arcs fall, read
        off every 16th row before the scan (+inf when the pool can hold every
        arc).  So the pool holds all eligible arcs, up to ``refill_size``, and
        pads them with the arcs closest to eligibility.  The pool is empty
        exactly when no arc prices below -tol; otherwise it keeps the
        ``refill_size`` cheapest admitted arcs, sorted by (reduced cost, flat
        index) so that ties resolve to the lexicographically smallest (i, j).
        Returns the pool's flat indices, their costs, and theta.
        """
        take = self.refill_size
        m, n = self.m, self.n
        q = math.inf
        if take < m * n:
            # q is the k-th smallest sampled reduced cost.  The sample is
            # walked in blocks, keeping only the k + 1 smallest so far.
            k = take * len(range(0, m, 16)) * n // (m * n)  # sampled arcs below q
            low = np.zeros(0)
            span = 16 * self.costs.step
            for r0 in range(0, m, span):
                red = self.costs.rows(r0, min(r0 + span, m), 16) - self.u[r0 : r0 + span : 16, None]
                red += self.w
                low = np.concatenate([low, red.reshape(-1)])
                if low.size > k + 1:
                    low = np.partition(low, k)[: k + 1]
            q = float(low.max())
        theta = max(-self.tol, q)

        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        cost_parts: list[np.ndarray] = []
        for r0, block in self.costs.blocks():
            red = np.subtract(block, self.u[r0 : r0 + len(block), None], out=self._scan_buf[: len(block)])
            red += self.w
            flat = red.reshape(-1)
            hit = np.flatnonzero(flat < theta)
            if hit.size:
                idx_parts.append(hit + r0 * n)
                val_parts.append(flat[hit])
                cost_parts.append(block.reshape(-1)[hit])
        vals = np.concatenate(val_parts) if val_parts else np.zeros(0)
        if not (vals.size and vals.min() < -self.tol):
            return np.zeros(0, dtype=np.int64), np.zeros(0), theta
        idx = np.concatenate(idx_parts).astype(np.int64, copy=False)
        cost = np.concatenate(cost_parts)
        if idx.size > take:
            part = np.argpartition(vals, take - 1)[:take]
            idx, vals, cost = idx[part], vals[part], cost[part]
        sel = np.lexsort((idx, vals))
        return idx[sel], cost[sel], theta

    def _bland_arc(self) -> Optional[tuple[int, int, float]]:
        """First arc (i, j, cost) in lexicographic (i, j) order with negative
        reduced cost.  Rows are priced 16 at a time, so the walk stops soon
        after the first eligible arc."""
        n = self.n
        for r0 in range(0, self.m, 16):
            block = self.costs.rows(r0, min(r0 + 16, self.m))
            red = block - self.u[r0 : r0 + len(block), None] + self.w
            hit = np.flatnonzero(red < -self.tol)
            if hit.size:
                i, j = divmod(int(hit[0]), n)
                return r0 + i, j, float(block[i, j])
        return None

    # -- driver ------------------------------------------------------------

    def _drain_pool(self, pool: np.ndarray, pool_cost: np.ndarray, theta: float) -> None:
        """Pivot on pool arcs (flat indices ``pool`` of costs ``pool_cost``)
        until none of them price below -tol, or until the pivot count passes
        ``bland_after``.

        ``theta`` is the reduced cost below which the pool admitted its arcs.
        Pricing alternates major and minor passes (Mulvey's candidate list).
        A major pass re-prices the whole pool, arcs that are not eligible yet
        included, so an arc that turns eligible after a pivot is entered from
        here without another full scan; its eligible arcs become the
        candidate list, kept as positions in the pool.  Each minor round
        enters up to 128 candidates, cheapest first, then re-prices only the
        candidates and drops those no longer eligible.  Once fewer than one
        in eight of the major pass's eligible arcs are left, the next major
        pass runs.  A list of at most 128 arcs is entered whole by its first
        round, and the next major pass follows at once: re-pricing the list
        would mostly find the arcs just entered, and on the small pools
        where such lists are common the call costs as much as a major pass.
        The same one-in-eight rule shrinks the pool: when fewer than one in
        eight pool arcs price below theta at a major pass, the pool keeps
        only those, so the major passes stay cheap; arcs dropped then are
        caught by the next full scan if they come back.
        """
        n, m, tol, pot, pot_a = self.n, self.m, self.tol, self.pot, self._pot_a
        batch = 128
        pool_rows = pool // n
        pool_sinks = pool - pool_rows * n + m
        red = np.empty(pool.size)  # reused: a fresh array per major pass page-faults
        while True:
            if self.iterations > self.bland_after:
                return
            np.subtract(pool_cost, pot.take(pool_rows), out=red)
            red += pot.take(pool_sinks)
            cand = np.flatnonzero(red < -tol)
            if cand.size == 0:
                return
            if cand.size * 8 < pool.size:
                below = red < theta
                if np.count_nonzero(below) * 8 < pool.size:
                    keep = np.flatnonzero(below)
                    pool = pool[keep]
                    pool_rows = pool_rows[keep]
                    pool_sinks = pool_sinks[keep]
                    pool_cost = pool_cost[keep]
                    red = red[keep]
                    cand = np.flatnonzero(red < -tol)
            eligible = cand.size
            cand_red = red[cand]
            while cand.size * 8 >= eligible:
                if self.iterations > self.bland_after:
                    return
                if cand.size > batch:
                    first = np.argpartition(cand_red, batch - 1)[:batch]
                    take, vals = cand[first], cand_red[first]
                else:
                    take, vals = cand, cand_red
                sel = take[np.lexsort((pool[take], vals))]
                for i, t, c in zip(pool_rows[sel].tolist(), pool_sinks[sel].tolist(), pool_cost[sel].tolist()):
                    if c - pot_a[i] + pot_a[t] < -tol:
                        self._pivot(i, t - m, c)
                if eligible <= batch:
                    break
                cand_red = pool_cost[cand] - pot.take(pool_rows[cand])
                cand_red += pot.take(pool_sinks[cand])
                live = cand_red < -tol
                cand, cand_red = cand[live], cand_red[live]

    def _neighbor_arcs(self) -> Optional[np.ndarray]:
        """Flat indices of a sparse warm-start arc set, sorted: mutual nearest
        neighbours between the two real atom clouds plus all reservoir arcs."""
        if not self.costs.above_knn:
            return None
        from scipy.spatial import cKDTree

        m_real, n_real = self.m - 1, self.n - 1
        k = min(32, n_real)
        tree_nu = cKDTree(self.costs.y)
        _, nbr = tree_nu.query(self.costs.x, k=k)
        nbr = np.asarray(nbr, dtype=np.int64).reshape(m_real, -1)
        rows = np.repeat(np.arange(m_real, dtype=np.int64), nbr.shape[1])
        arcs_fwd = rows * self.n + nbr.reshape(-1)
        k2 = min(32, m_real)
        tree_mu = cKDTree(self.costs.x)
        _, nbr2 = tree_mu.query(self.costs.y, k=k2)
        nbr2 = np.asarray(nbr2, dtype=np.int64).reshape(n_real, -1)
        cols = np.repeat(np.arange(n_real, dtype=np.int64), nbr2.shape[1])
        arcs_bwd = nbr2.reshape(-1) * self.n + cols
        res_row = np.int64(m_real) * self.n + np.arange(self.n, dtype=np.int64)
        res_col = np.arange(m_real, dtype=np.int64) * self.n + (self.n - 1)
        # np.unique's result from a sort and a first-of-each-run mask, which
        # takes a tenth of np.unique's time on these arrays
        arcs = np.sort(np.concatenate([arcs_fwd, arcs_bwd, res_row, res_col]))
        return arcs[np.concatenate(([True], arcs[1:] != arcs[:-1]))]

    def run(self) -> None:
        hard_cap = 10_000_000

        # Phase 1: drive the basis close to optimal on a sparse arc set where
        # re-pricing is nearly free.  Its arcs are admitted for being near,
        # not cheap, so its admission threshold is -tol: once most price out,
        # only the eligible ones are kept.
        if self.warm is not None:
            self._drain_pool(self.warm, self.warm_cost, -self.tol)

        # Phase 2: full pricing until a complete scan certifies optimality.
        exact = 0  # pivot count when the potentials were last recomputed
        while True:
            if self.iterations > hard_cap:
                raise RuntimeError("transportation simplex exceeded the pivot cap")
            if self.iterations > self.bland_after:
                arc = self._bland_arc()
                if arc is None:
                    self._restore_potentials()
                    break
                self._pivot(*arc)
                continue
            # Incremental dual updates accumulate rounding over many pivots;
            # refresh them before scanning and certifying optimality, unless
            # no pivot moved them since.  The optimal tree leaves with these.
            if self.iterations != exact:
                self._restore_potentials()
                exact = self.iterations
            pool = self._refill()
            if pool[0].size == 0:
                break
            self._drain_pool(*pool)
            del pool  # the next scan builds the next pool without it

        self._restore_flows()

    def _restore_flows(self) -> None:
        """Recompute basic flows exactly from the supplies along the final tree."""
        residual = np.concatenate([self.supply, self.demand]).tolist()
        parent = self.parent
        flow = self.flow
        root = self.root
        for node in reversed(self._order_a):
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
        """Node potentials from the tree: zero at the root, tight basic arcs."""
        m = self.m
        parent, arc_cost = self.parent, self.arc_cost
        pot = [0.0] * self.N
        for node in self._order_a[1:]:
            if node < m:
                pot[node] = arc_cost[node] + pot[parent[node]]
            else:
                pot[node] = pot[parent[node]] - arc_cost[node]
        self._pot_a[:] = array("d", pot)


# ---------------------------------------------------------------------------
# Public solver API
# ---------------------------------------------------------------------------

def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> SolveReport:
    """Exact minimiser of the reservoir transport LP between two measures.

    Returns the optimal cost, an optimal vertex plan, optimal dual potentials
    satisfying complementary slackness, the pivot count, the primal-dual gap
    (which certifies optimality to rounding accuracy) and the path.  In d = 1
    the monotone coupling of each half-line is the optimum ("line").  Above,
    the ray-by-ray monotone coupling is taken, with no pivot, when the lifted
    radial duals certify it ("rays"), as on the annular grids of
    ``families``; else the transportation simplex solves ("simplex").  The
    ray plan is a vertex: its support is a forest of at most m + n arcs, per
    ray a staircase path that touches at most one of the reservoir nodes.
    A pair whose total masses sum beyond the float range is refused up front.
    """
    _check_pair(mu, nu)
    report = _solve_line(mu, nu, cost) if mu.dim == 1 else _solve_rays(mu, nu, cost)
    return _solve_simplex(mu, nu, cost) if report is None else report


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    """Refuse two dimensions, or total masses whose sum, which every path adds up, overflows."""
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")
    if not math.isfinite(mu.total_mass() + nu.total_mass()):
        raise ValueError(
            f"the total masses {mu.total_mass()!r} and {nu.total_mass()!r} sum beyond the float range; "
            "rescale the weights"
        )


def _solve_simplex(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> SolveReport:
    """``solve`` by the transportation simplex, in any dimension."""
    m, n = mu.n_atoms, nu.n_atoms
    costs = _ReservoirCost(cost, mu, nu)

    mass_mu = mu.total_mass()
    mass_nu = nu.total_mass()
    supply = np.concatenate([mu.weights, [mass_nu]])
    demand = np.concatenate([nu.weights, [mass_mu]])

    sx = _Simplex(costs, supply, demand)
    sx.run()

    # Each non-root tree node carries the flow on the arc to its parent; a
    # source's parent is a sink and vice versa.  Arcs keep node order.
    node = np.arange(sx.N)
    parent = np.array(sx.parent)
    flow = np.array(sx.flow)
    is_src = node < sx.m
    ia = np.where(is_src, node, parent)
    ib = np.where(is_src, parent, node) - sx.m
    # the reservoir self-loop (m, n) is dropped by convention; its cost is 0, so it adds nothing to the value
    live = (flow > 0.0) & (node != sx.root) & ((ia < m) | (ib < n))
    ia, ib = np.where(ia < m, ia, -1)[live], np.where(ib < n, ib, -1)[live]

    # Shift tree potentials so both reservoir nodes sit exactly at zero; the
    # result is feasible and optimal for the reservoir LP.
    duals = DualPotentials(phi=sx.u[:m] - sx.w[n], psi=sx.u[m] - sx.w[:n], p=cost.p)
    return _report(mu, nu, ia, ib, flow[live], np.array(sx.arc_cost)[live], duals, sx.iterations, "simplex")


def _solve_line(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> SolveReport:
    """``solve`` in d = 1: ``_staircase`` with each atom labelled by the sign of z.

    No optimal arc crosses the origin, since (|x| + |y|)^p >= |x|^p + |y|^p.
    """
    z_mu, z_nu = mu.positions[:, 0], nu.positions[:, 0]
    ia, ib, mass, price, phi, psi = _staircase(z_mu < 0, abs(z_mu), mu.weights, z_nu < 0, abs(z_nu), nu.weights, cost)
    return _report(mu, nu, ia, ib, mass, price, DualPotentials(phi=phi, psi=psi, p=cost.p), 0, "line")


def _solve_rays(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> Optional[SolveReport]:
    """``solve`` by the ray-by-ray monotone coupling; None where it is not certified.

    One ``_monotone_merge`` over the ``_ray_ids`` labels gives a feasible
    plan of cost U.  The staircase duals f, g of the radial problem, lifted
    to phi_i = f(|x_i|) and psi_j = g(|y_j|), are feasible (||x| - |y|| <=
    |x - y|) and their value is the radial lower bound R.  U is accepted when
    the gap |U - R| is at most RAY_CERT_TOL * G, G the sum over the plan's
    segments of mass * (|x| + |y|)^p.  The attempt runs only where an atom of
    mu and one of nu share a ray, or where both sides are empty.  Else U sends
    all mass through the reservoir: where both sides have atoms, R pairs mass
    at |a - b|^p < a^p + b^p, and where one side is empty, the simplex finds
    that plan sooner.  Atoms on one ray share every key of ``_ray_keys``, so
    a set test lets go a pair whose sides share no key in coordinate 0 (most
    clouds) before the sort that ranks the labels; it is skipped where the
    first atoms share that key, as on one grid.
    """
    key, m, n = _ray_keys(mu, nu), mu.n_atoms, nu.n_atoms
    axis0 = key[0]
    if (m or n) and not (m and n and axis0[0] == axis0[m]) and set(axis0[:m].tolist()).isdisjoint(axis0[m:].tolist()):
        return None
    ray_x, ray_y = _ray_ids(key, m)  # labels 1 .. m + n: mu's atoms counted per label, read at nu's
    if (m or n) and not np.bincount(ray_x, minlength=m + n + 1)[ray_y].any():
        return None
    _, ia, ib, mass = _monotone_merge(ray_x, mu.radii, mu.weights, ray_y, nu.radii, nu.weights)
    *_, phi, psi = _radial_staircase(mu, nu, cost)
    # |x|^p and |y|^p of each segment's atoms, 0 at the reservoir; a direct arc pays |x - y|^p
    ra, rb = np.append(mu.radii, 0.0)[ia], np.append(nu.radii, 0.0)[ib]
    price = _pow(ra, cost.p) + _pow(rb, cost.p)
    direct = np.minimum(ia, ib) >= 0
    price[direct] = cost.pairwise(np.take(mu.positions, ia[direct], axis=0), np.take(nu.positions, ib[direct], axis=0))
    with np.errstate(over="ignore"):  # G only scales the allowance, so a dot product does; inf certifies nothing
        gross = float(mass @ _pow(ra + rb, cost.p))
    try:
        report = _report(mu, nu, ia, ib, mass, price, DualPotentials(phi=phi, psi=psi, p=cost.p), 0, "rays")
    except ValueError:  # U leaves the float range; the optimum need not
        return None
    return report if report.gap <= RAY_CERT_TOL * gross < math.inf else None


def _ray_keys(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The direction z / |z| of every atom, mu's then nu's, snapped to a 2^-32 grid.

    One row per coordinate, one column per atom, each an integer held
    exactly in a float.  The atoms of one grid ray agree in direction to a
    few ulps, so they share a key unless a component sits within rounding
    of a grid midpoint; a ray split that way only makes the ray certificate
    miss.
    """
    # z / (|z| 2^-32) is 2^32 (z / |z|) rounded once, as |z| >= 2^-511
    units = np.concatenate([mu.positions.T, nu.positions.T], axis=1)
    return np.rint(units / (np.concatenate([mu.radii, nu.radii]) / _RAY_GRID))


def _ray_ids(key: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A ray label for each column of ``key`` (``_ray_keys``), shared exactly
    where the keys are: the first ``m`` labels, mu's, and the rest, nu's.

    A label ranks its key among the distinct keys, last coordinate first.
    Complex numbers sort by (real, imag), so the coordinates rank in pairs
    from the last, one stable sort a pair (one in d = 2, two in d = 3).
    """
    d = key.shape[0]
    cols = [*key[: d % 2], *(key[d % 2 + 1 :: 2] + 1j * key[d % 2 :: 2])]  # least significant first
    order = np.lexsort(cols)
    new_ray = np.ones(order.size, dtype=bool)
    new_ray[1:] = np.any([(ranked := col[order])[1:] != ranked[:-1] for col in cols], axis=0)
    ids = np.empty(order.size, dtype=np.intp)
    ids[order] = np.cumsum(new_ray)
    return ids[:m], ids[m:]


def _radial_staircase(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """``_staircase`` between |z|_# mu and |z|_# nu: every atom on one ray, at its radius."""
    return _staircase(0, mu.radii, mu.weights, 0, nu.radii, nu.weights, cost)


def _staircase(ray_a, ra, wa, ray_b, rb, wb, cost: CostSpec):
    """The monotone coupling of two measures on half-lines, and its staircase duals.

    Atom k of side a sits on ray ``ray_a[k]`` at radius ``ra[k]`` with mass
    ``wa[k]``; likewise for b.  Returns the ``_monotone_merge`` segments (ia,
    ib, mass), their costs |ra - rb|^p (r^p at the reservoir, -1), and the
    staircase basis potentials phi, psi.
    Walked from the origin outwards, an atom's potential is its arc's cost
    minus the potential of the atom last brought in on the other side of its
    ray (the reservoir's 0 before any).  The basis is a staircase, so these
    are feasible: the cost matrix of a sorted half-line is Monge.
    """
    ray, ia, ib, mass = _monotone_merge(ray_a, ra, wa, ray_b, rb, wb)
    # each segment's successor on its ray; -1, the reservoir, past the last
    same = ray[1:] == ray[:-1]
    next_a = np.concatenate([np.where(same, ia[1:], -1), [-1]])
    next_b = np.concatenate([np.where(same, ib[1:], -1), [-1]])
    # segment and link costs in one call, the reservoir (-1) at the origin: there they are r^p, bit for bit
    x, y = np.append(ra, 0.0)[:, None], np.append(rb, 0.0)[:, None]
    k = ia.size
    both = cost.pairwise(np.take(x, np.concatenate([ia, ia]), axis=0), np.take(y, np.concatenate([ib, next_b]), axis=0))
    # walk order: row r is segment k - 1 - r; an event is an atom it has and the one inside lacks, a first
    new = np.empty((k, 2), dtype=bool)
    new[::-1, 0] = (ia >= 0) & (ia != next_a)
    new[::-1, 1] = (ib >= 0) & (ib != next_b)
    event = np.flatnonzero(new)
    row, on_b = event >> 1, event & 1
    seg = k - 1 - row
    price = both[seg + k * (new[:, 1][row] > on_b)]  # with a b atom, an a atom takes the zero-flow link arc
    # a run of events on one side of a ray hangs on the last event of the run before, and the ends of
    # a ray's runs form the chain end_r = price_r - end_(r-1): a signed cumsum has its bits
    key = 2 * ray[seg] + on_b
    last = np.ones(key.size, dtype=bool)  # the events that end a run
    last[:-1] = key[1:] != key[:-1]
    end = np.flatnonzero(last)
    sign = 1.0 - 2.0 * (np.arange(end.size) & 1)
    chain, parent, end_ray = sign * price[end], np.zeros(end.size), ray[seg[end]]
    cuts = np.flatnonzero(end_ray[1:] != end_ray[:-1]) + 1
    for lo, hi in zip([0, *cuts], [*cuts, end.size]):
        parent[lo + 1 : hi] = sign[lo : hi - 1] * np.cumsum(chain[lo : hi - 1])
    pot = np.empty(ra.size + rb.size)
    pot[np.where(on_b, ib[seg] + ra.size, ia[seg])] = price - parent[np.cumsum(last) - last]
    return ia, ib, mass, both[:k], pot[: ra.size], pot[ra.size :]


def _two_sum(a, b):
    """s = fl(a + b) and its rounding error t, so that a + b = s + t exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _monotone_merge(ray_a, ra, wa, ray_b, rb, wb):
    """The monotone (quantile) coupling, ray by ray, of two measures with a reservoir.

    Atom k of side a has radius ``ra[k]``, mass ``wa[k]`` and ray label
    ``ray_a[k]``, an integer in [0, 2^48), or one such label for all;
    likewise for b.  On each ray, a plus b's mass there at the origin is
    coupled with b plus a's: both sides' quantile breakpoints, from the far
    end inwards, are merged, and each segment between two pairs the atoms
    that hold it.  A ray one side does not use merges against nothing, so
    its atoms meet the reservoir.  On a half-line this coupling is optimal
    for every p >= 1.

    Returns (ray, ia, ib, mass) per segment, by ray label and far end
    first: the ray (a float), the a and b atoms (-1: the reservoir) and the
    mass.  The free reservoir-to-reservoir segment is left out.  Breakpoints
    are compared as normalised (hi, lo) pairs, so equal cumulative sums
    meet, and each mass is a difference of two, rounded once.
    """
    na, n, shift = ra.size, ra.size + rb.size, 2.0**48
    # a complex key sorts by (real, imag) in one pass: here by label, b's
    # shifted past a's, then -radius: each side's rays in label order, each
    # ray one run of atoms, far end first
    key = np.empty(n, dtype=complex)
    key.real[:na], key.real[na:], key.imag[:na], key.imag[na:] = ray_a, ray_b + shift, -ra, -rb
    order = np.argsort(key, kind="stable")
    lab = np.append(key.real[order], -1.0)  # a sentinel past the end
    w = np.concatenate([wa, wb])[order]
    # the mass of each run from its far end through each atom, as a
    # normalised double-double (hi, lo): a cumsum plus the sum of its exact
    # TwoSum errors, less the run's base by TwoSum, then normalised
    c = np.concatenate(([0.0], np.cumsum(w)))
    v = c[1:] - c[:-1]
    err = np.concatenate(([0.0], np.cumsum((c[:-1] - (c[1:] - v)) + (w - v))))
    base = np.searchsorted(lab[:-1], lab[:-1])  # the first atom of each atom's run
    hi, lo = _two_sum(c[1:], -c[base])
    hi, lo = _two_sum(hi, lo + (err[1:] - err[base]))
    # the breakpoints by (ray, hi), a's first; lo orders those that share both
    point = np.empty(n, dtype=complex)
    point.real, point.imag = lab[:-1], hi
    point.real[na:] -= shift
    merged = np.argsort(point, kind="stable")
    point, low, at = point[merged], lo[merged], np.arange(na, na + n)
    tie = point[1:] == point[:-1]
    if tie.any():  # equal breakpoints meet, the first kept
        if (tie & (low[1:] < low[:-1])).any():  # within a run of equal (ray, hi), lo orders them
            fix = np.argsort(np.concatenate(([0], np.cumsum(~tie))) + 1j * low, kind="stable")
            merged, point, low = merged[fix], point[fix], low[fix]
        keep = np.ones(n, dtype=bool)
        keep[1:] = ~tie | (low[1:] != low[:-1])
        merged, point, low, at = merged[keep], point[keep], low[keep], at[keep]
    ray, hi = point.real, point.imag
    # where each side's next atom sits in ``lab``: for the breakpoint's own
    # side its index t there, for the other na + rank - t; a's is the smaller
    at -= merged
    ka, kb = np.minimum(merged, at), np.maximum(merged, at)
    order = np.append(order, -1)
    ia = np.where(lab[ka] == ray, order[ka], -1)
    ib = np.where(lab[kb] == ray + shift, order[kb] - na, -1)
    # each segment starts at the breakpoint before it on its ray, or at 0
    same = ray[1:] == ray[:-1]
    start_hi, start_lo = np.concatenate(([0.0], hi[:-1] * same)), np.concatenate(([0.0], low[:-1] * same))
    d, t = _two_sum(hi, -start_hi)
    return ray, ia, ib, d + (t + (low - start_lo))


def _report(mu: DiscreteMeasure, nu: DiscreteMeasure, ia: np.ndarray, ib: np.ndarray, flow: np.ndarray,
            price: np.ndarray, duals: DualPotentials, iterations: int, path: str) -> SolveReport:
    """The report of an optimal plan and its duals: plan, value, dual value and gap.

    Arc k moves ``flow[k]`` at ``price[k]`` per unit from atom ``ia[k]`` of
    mu to atom ``ib[k]`` of nu, -1 being the reservoir; no arc joins the
    reservoir to itself.  The value is the sum of flow * price over the arcs.
    A value, dual value or gap beyond the float range raises ValueError.
    """
    direct = np.minimum(ia, ib) >= 0
    to_res, from_res = np.zeros(mu.n_atoms), np.zeros(nu.n_atoms)
    to_res[ia[ib < 0]] = flow[ib < 0]
    from_res[ib[ia < 0]] = flow[ia < 0]
    plan = TransportPlan(mu.n_atoms, nu.n_atoms, ia[direct], ib[direct], flow[direct], to_res, from_res)
    with np.errstate(over="ignore"):  # an overflow is refused below
        terms = (flow * price).tolist()
        phi_terms = (mu.weights * duals.phi).tolist()
        psi_terms = (nu.weights * duals.psi).tolist()
    try:
        value = math.fsum(terms)
        dual = math.fsum(phi_terms) + math.fsum(psi_terms)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        value = dual = math.nan
    gap = abs(value - dual)
    if not math.isfinite(gap):
        raise ValueError(
            f"the transport cost overflows the float range (value {value!r}, dual value {dual!r}); "
            "rescale the weights or the coordinates"
        )
    return SolveReport(value=value, plan=plan, duals=duals, iterations=iterations, gap=gap, path=path)


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

    Empty list iff every mu row sum and nu column sum matches its atom weight
    w within ``tol * max(1, w)`` (relative to heavy atoms, absolute below
    unit mass) and no flow is below ``-tol``.
    """
    out: list[PlanViolation] = []
    if plan.n_mu != mu.n_atoms or plan.n_nu != nu.n_atoms:
        raise ValueError("plan shape does not match the measures")
    for arr in (plan.direct_vals, plan.to_reservoir, plan.from_reservoir):
        for k in np.nonzero(np.asarray(arr) < -tol)[0]:
            out.append(PlanViolation("negativity", int(k), float(arr[k])))
    for side, got, want in (("mu", plan.mu_marginal(), mu.weights), ("nu", plan.nu_marginal(), nu.weights)):
        for k in np.nonzero(np.abs(got - want) > tol * np.maximum(1.0, want))[0]:
            out.append(PlanViolation(side, int(k), float(got[k] - want[k])))
    return out


def k_support_check(plan: TransportPlan, mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
                    tol: float = 1e-9) -> list[tuple[int, int, float]]:
    """Arcs of the plan that leave the cheap set {|x-y|^p <= |x|^p + |y|^p}.

    Optimal plans never charge such arcs (rerouting through the reservoir
    would be strictly cheaper), so the list is empty for solver output.
    Returns (i, j, excess) triples for arcs with mass above 1e-12.
    """
    cost = CostSpec(p)
    keep = plan.direct_vals > 1e-12
    rows, cols = plan.direct_rows[keep], plan.direct_cols[keep]
    direct = cost.pairwise(np.take(mu.positions, rows, axis=0), np.take(nu.positions, cols, axis=0))
    through = cost.reservoir_cost(mu)[rows] + cost.reservoir_cost(nu)[cols]
    bad = direct > through + tol
    return [(int(i), int(j), float(e)) for i, j, e in zip(rows[bad], cols[bad], (direct - through)[bad])]


def dual_value(duals: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Dual objective of a feasible potential pair; rejects infeasible input.

    The value never exceeds the primal optimum, with equality for solver duals.
    """
    bad = duals.violations(mu, nu)
    if bad:
        raise ValueError("infeasible dual potentials: " + bad[0])
    return math.fsum((mu.weights * duals.phi).tolist()) + math.fsum((nu.weights * duals.psi).tolist())


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
    # Python floats: the loops below index them one at a time
    res_mu = cost.reservoir_cost(mu).tolist()
    res_nu = cost.reservoir_cost(nu).tolist()
    pair = cost.pair_matrix(mu, nu).tolist()
    base = math.fsum(res_mu) + math.fsum(res_nu)

    best = base
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            row_gain = sum(map(res_mu.__getitem__, rows))
            lines = [pair[i] for i in rows]
            for cols in itertools.permutations(range(n), k):
                direct = sum(map(list.__getitem__, lines, cols))
                col_gain = sum(map(res_nu.__getitem__, cols))
                cand = base - row_gain - col_gain + direct
                if cand < best:
                    best = cand
    return best
