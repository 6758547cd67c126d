"""Grid machinery for the comparison-principle experiments.

Everything here operates on sampled functions over regular boxes: the
quadratic sup/inf-convolutions, the smoothed power penalty and its gradient,
evaluation of the nonlocal jump operator against a discrete measure, the
two-point penalized maximization, the coupling inequality that connects the
operator difference at a maximum to the transport distance of the measures,
and a small linear-equation experiment that runs the whole chain end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .measures import DiscreteMeasure, SchemaError, decompose, tv_distance, _check_p
from . import transport

__all__ = [
    "GridFunction",
    "grid_from_dict",
    "PenalizationSpec",
    "EquationSpec",
    "psi_kappa",
    "psi_kappa_grad",
    "pointwise_power_constant",
    "sup_convolution",
    "inf_convolution",
    "levy_op_eval",
    "DoublingResult",
    "doubling_maximize",
    "CouplingCheck",
    "coupling_inequality_check",
    "ExperimentReport",
    "basic_idea_experiment",
]


@dataclass(frozen=True)
class GridFunction:
    """Function sampled on a regular box grid, constant outside the box.

    Evaluation anywhere uses multilinear interpolation of the node values;
    queries outside the box are clamped to the boundary first, so the
    extension is the constant continuation of the boundary values and the
    function stays bounded and uniformly continuous on all of R^d.
    """

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != lo.size or lo.size != hi.size:
            raise ValueError("value array rank must match the box dimension")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent")
        if any(s < 2 for s in vals.shape):
            raise ValueError("need at least two nodes per axis")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.values.shape) - 1)

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.linspace(self.lo[k], self.hi[k], self.values.shape[k])
            for k in range(self.dim)
        )

    def nodes(self) -> np.ndarray:
        """All grid nodes as a (n_nodes, dim) array in row-major node order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.isnan(pts).any():
            raise ValueError("cannot evaluate a grid function at NaN")
        clamped = np.clip(pts, self.lo[None, :], self.hi[None, :])
        # per axis: each point's cell [a_i, a_i+1] (the last cell for a_n-1)
        # and its weights (1 - t, t) on the cell's two ends
        cells, weights = [], []
        for k, axis in enumerate(self.axes()):
            x = clamped[:, k]
            i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
            t = (x - axis[i]) / (axis[i + 1] - axis[i])
            cells.append(i)
            weights.append((1.0 - t, t))
        # sum over the 2^d corners of the cell: value times weights, axis by axis
        out = np.zeros(len(clamped))
        for corner in itertools.product((0, 1), repeat=self.dim):
            term = self.values[tuple(i + c for i, c in zip(cells, corner))]
            for c, w in zip(corner, weights):
                term = term * w[c]
            out += term
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.lo, self.hi, values)


def grid_from_dict(doc: dict, source: str) -> GridFunction:
    """GridFunction from {"lo", "hi", "values"}; a malformed ``source`` raises SchemaError."""
    try:
        return GridFunction(
            np.asarray(doc["lo"], dtype=float),
            np.asarray(doc["hi"], dtype=float),
            np.asarray(doc["values"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{source}: invalid grid function document: {exc}") from exc


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not (0.0 < epsilon < math.inf and 1.0 / epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, with 1/epsilon finite, got {epsilon!r}")
    return epsilon


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa!r}")
    return kappa


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    return delta


@dataclass(frozen=True)
class PenalizationSpec:
    """Doubling penalty (1/epsilon) psi_kappa(x - y) with exponent p."""

    epsilon: float
    kappa: float
    p: float

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        _check_kappa(self.kappa)
        object.__setattr__(self, "p", _check_p(self.p))


def psi_kappa(x, spec: PenalizationSpec) -> float:
    """Smoothed power penalty (kappa + |x|^2)^{p/2} - kappa^{p/2}."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sq = float(np.dot(x, x))
    return (spec.kappa + sq) ** (spec.p / 2.0) - spec.kappa ** (spec.p / 2.0)


def psi_kappa_grad(x, spec: PenalizationSpec) -> np.ndarray:
    """Gradient p x (kappa + |x|^2)^{p/2 - 1}; its norm is at most p |x|^{p-1}."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sq = float(np.dot(x, x))
    return spec.p * x * (spec.kappa + sq) ** (spec.p / 2.0 - 1.0)


@lru_cache(maxsize=None)
def pointwise_power_constant(p: float) -> float:
    """Sampled uniform bound on the second-order penalty quotient.

    Dense 1-d sampling of |psi_kappa(a+h) - psi_kappa(a) - psi_kappa'(a) h| /
    |h|^p over base points and offsets in [-2, 2] and the kappa grid
    {1e-6, 1e-3, 0.5}, times a safety factor of 1.05.  The quotient is bounded
    uniformly in kappa; the sampled value stands in for that constant.
    """
    p = _check_p(p)
    a = np.linspace(-2.0, 2.0, 801)
    h = np.linspace(-2.0, 2.0, 801)
    h = h[np.abs(h) > 1e-9]
    worst = 0.0
    for kappa in (1e-6, 1e-3, 0.5):
        base = (kappa + a * a) ** (p / 2.0)
        grad = p * a * (kappa + a * a) ** (p / 2.0 - 1.0)
        shifted = (kappa + (a[:, None] + h[None, :]) ** 2) ** (p / 2.0)
        resid = np.abs(shifted - base[:, None] - grad[:, None] * h[None, :])
        quot = resid / np.abs(h)[None, :] ** p
        worst = max(worst, float(quot.max()))
    return worst * 1.05


def sup_convolution(
    u: GridFunction, delta: float, with_achievers: bool = False
):
    """Discrete sup-convolution: max over nodes y of u(y) - |x - y|^2 / delta.

    The penalty is a sum over axes, so the maximum over the whole node set is
    exact as one 1-d max pass per axis: O(N sum_k n_k) work for N nodes with
    n_k per axis.  The achieving node always lies within distance
    sqrt(2 delta ||u||_inf) of x, so nothing is lost by the finite box.  With
    ``with_achievers`` the flat index of the achieving node per evaluation
    node is returned alongside.  Ties resolve to the lowest index on the last
    axis, then, among those, on the axis before it, and so on to the first.
    """
    delta = _check_delta(delta)
    w = u.values
    args = []
    for k, a in enumerate(u.axes()):
        # cand[..., x_k, y_k]: the running maximum moved to y_k, penalised.
        cand = np.moveaxis(w, k, -1)[..., None, :] - (a[:, None] - a[None, :]) ** 2 / delta
        arg = np.argmax(cand, axis=-1)
        w = np.moveaxis(np.take_along_axis(cand, arg[..., None], axis=-1)[..., 0], -1, k)
        args.append(np.moveaxis(arg, -1, k))
    result = u.with_values(w)
    if not with_achievers:
        return result
    # args[k] is indexed by (x_0..x_k, y_{k+1}..y_{d-1}): resolve y from the
    # last axis back to the first.
    idx = list(np.indices(w.shape))
    for k in reversed(range(u.dim)):
        idx[k] = args[k][tuple(idx)]
    return result, np.ravel_multi_index(idx, w.shape).reshape(-1)


def inf_convolution(v: GridFunction, delta: float) -> GridFunction:
    """Discrete inf-convolution: min over nodes y of v(y) + |x - y|^2 / delta."""
    neg = sup_convolution(v.with_values(-v.values), delta)
    return neg.with_values(-neg.values)


def levy_op_eval(
    u: GridFunction,
    x,
    mu: DiscreteMeasure,
    grad_u_at_x,
) -> float:
    """The jump operator sum_i w_i [u(x+z_i) - u(x) - 1_{|z|<1} grad . z_i].

    The gradient used in the small-jump compensation is supplied by the
    caller: analytic for test functions, central differences for grid data.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(grad_u_at_x, dtype=float))
    shifted = u(x[None, :] + mu.positions)
    ux = u(x)
    comp = np.where(mu.radii < 1.0, mu.positions @ grad, 0.0)
    terms = mu.weights * (shifted - ux - comp)
    return math.fsum(terms.tolist())


@dataclass(frozen=True)
class DoublingResult:
    x_star: np.ndarray
    y_star: np.ndarray
    value: float
    index: tuple[int, int]


# Nodes per axis in one tile of u nodes; each tile is scored against the
# v nodes close enough to beat the lower bound.
_TILE = 8


def _along(a: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1-d array laid along ``axis`` of an ``ndim``-dimensional broadcast."""
    return a.reshape((1,) * axis + (-1,) + (1,) * (ndim - axis - 1))


def _scores(uu, vv, sq_terms, alpha: float, spec: PenalizationSpec) -> np.ndarray:
    """uu - vv - (1/eps) psi_kappa for broadcast pairs with |x - y|^2 split by axis.

    The axes are summed in order, as ``cdist(..., "sqeuclidean")`` does, and
    every pair goes through the same array expression, so a pair's score does
    not depend on which other pairs are scored with it.
    """
    sq = sq_terms[0]
    for term in sq_terms[1:]:
        sq = sq + term
    return uu - vv - alpha * ((spec.kappa + sq) ** (spec.p / 2.0) - spec.kappa ** (spec.p / 2.0))


def doubling_maximize(u: GridFunction, v: GridFunction, spec: PenalizationSpec) -> DoublingResult:
    """Exact maximizer of u(x) - v(y) - (1/eps) psi_kappa(x - y) over node pairs.

    The grids of u and v may differ in box and node count.  The result is
    that of scoring every node pair, value and index bit for bit, with ties
    resolved to the lexicographically smallest (x, y) node index pair.  A
    pair's score is always the expression
    u(x) - v(y) - (1/eps) ((kappa + |x - y|^2)^{p/2} - kappa^{p/2}) with
    |x - y|^2 summed axis by axis, and only pairs that provably score below a
    score some pair attains are skipped:

    - each u node against its nearest v node gives the lower bound L;
    - u is cut into tiles of ``_TILE`` nodes per axis.  A pair from tile T
      scores at most max_T u - min v - (1/eps) psi_kappa(x - y), so a tile
      with max_T u - min v < L is skipped, and the others are scored only
      against the v sub-box within distance R of the tile, where
      (1/eps) psi_kappa(R) = max_T u - min v - L (psi_kappa grows with |h|);
    - rounding margin: a float score differs from the exact score of the
      same node coordinates by less than (d + 28) 2^-53 times
      |u(x)| + |v(y)| + (1/eps)(kappa + |x - y|^2)^{p/2}, allowing pow four
      units in the last place.  With eta = (d + 64) 2^-50, the bound gets
      eta (max|u| + max|v| + |L| + kappa^{p/2}/eps) added and is scaled by
      1 + eta; R^2 gets eta (kappa + R^2) added, R is scaled by 1 + eta and
      gets eta times the largest |coordinate| added.  This covers that error
      and the rounding in the bound and in R, so every pair whose float score
      can reach L is scored.

    Work is about the number of pairs within R of their tile, plus one
    nearest-node pass.  u(x) - v(y) must not overflow.
    """
    if u.dim != v.dim:
        raise ValueError("grids must share the ambient dimension")
    v_min = float(v.values.min())
    if not math.isfinite(float(u.values.max()) - v_min):
        raise ValueError("u(x) - v(y) overflows; rescale the grid values")
    dim, alpha = u.dim, 1.0 / spec.epsilon
    ax_u, ax_v = u.axes(), v.axes()

    # L: every u node against its nearest v node, found axis by axis
    near = []
    for a, b in zip(ax_u, ax_v):
        j = np.clip(np.searchsorted(b, a), 1, b.size - 1)
        near.append(j - (a - b[j - 1] <= b[j] - a))
    sq_near = [_along((a - b[j]) ** 2, k, dim) for k, (a, b, j) in enumerate(zip(ax_u, ax_v, near))]
    lower = float(_scores(u.values, v.values[np.ix_(*near)], sq_near, alpha, spec).max())

    # per tile: the widened bound on the penalty a pair can carry, and R
    eta = (dim + 64) * 2.0 ** -50
    kpow = spec.kappa ** (spec.p / 2.0)
    starts = [np.arange(0, n, _TILE) for n in u.values.shape]
    tile_max = u.values
    for k, s in enumerate(starts):
        tile_max = np.maximum.reduceat(tile_max, s, axis=k)
    scale = np.abs(np.concatenate([u.lo, u.hi, v.lo, v.hi])).max()
    with np.errstate(over="ignore"):  # an infinite bound only means scoring every pair
        slack = eta * (np.abs(u.values).max() + np.abs(v.values).max() + abs(lower) + alpha * kpow)
        reach = (tile_max - v_min - lower + slack) * (1.0 + eta)
        r2 = (np.maximum(reach, 0.0) / alpha + kpow) ** (2.0 / spec.p) - spec.kappa
        radius = np.sqrt(np.maximum(r2 + eta * (spec.kappa + np.abs(r2)), 0.0)) * (1.0 + eta) + eta * scale
    live = reach >= 0.0
    box = []  # per axis: the v index range [lo, hi) within R of each tile
    for k, (a, b, s) in enumerate(zip(ax_u, ax_v, starts)):
        first = _along(a[s], k, dim)
        last = _along(a[np.minimum(s + _TILE, a.size) - 1], k, dim)
        lo = np.searchsorted(b, first - radius, "left")
        hi = np.searchsorted(b, last + radius, "right")
        live &= hi > lo
        box.append((lo, hi))

    found = []  # per tile: (its best score, x multi-index, y multi-index)
    for tile in zip(*np.nonzero(live)):
        ui = tuple(slice(t * _TILE, (t + 1) * _TILE) for t in tile)
        vj = tuple(slice(lo[tile], hi[tile]) for lo, hi in box)
        # pairs laid out as (x axes..., y axes...)
        sq = [
            (_along(a[i], k, 2 * dim) - _along(b[j], dim + k, 2 * dim)) ** 2
            for k, (a, b, i, j) in enumerate(zip(ax_u, ax_v, ui, vj))
        ]
        uu = u.values[ui]
        w = _scores(uu.reshape(uu.shape + (1,) * dim), v.values[vj], sq, alpha, spec)
        at = np.unravel_index(int(np.argmax(w)), w.shape)
        found.append((
            float(w[at]),
            tuple(s.start + int(a) for s, a in zip(ui, at[:dim])),
            tuple(s.start + int(a) for s, a in zip(vj, at[dim:])),
        ))
    value = max(f[0] for f in found)
    # row-major order is lexicographic in the multi-index, so this is the
    # lexicographically smallest flat (x, y) pair among the maxima
    _, xi, yj = min(f for f in found if f[0] == value)
    return DoublingResult(
        x_star=np.array([a[i] for a, i in zip(ax_u, xi)]),
        y_star=np.array([b[j] for b, j in zip(ax_v, yj)]),
        value=value,
        index=(int(np.ravel_multi_index(xi, u.values.shape)), int(np.ravel_multi_index(yj, v.values.shape))),
    )


@dataclass(frozen=True)
class CouplingCheck:
    lhs: float
    rhs: float
    passed: bool
    x_star: np.ndarray
    y_star: np.ndarray
    distance_p: float
    tv_term: float


def coupling_inequality_check(
    u: GridFunction,
    v: GridFunction,
    spec: PenalizationSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = 1e-8,
) -> CouplingCheck:
    """Operator difference at a doubling maximum against the transport bound.

    At the grid maximum (x*, y*) of u(x) - v(y) - (1/eps) psi_kappa(x - y):
    lhs = L_mu(u, x*) - L_nu(v, y*), with the compensation gradient read from
    the penalty's first-order condition; rhs = C_p (1/eps) distance(mu^, nu^)^p
    + 2 ||v||_inf d_TV(mu-check, nu-check), with C_p =
    pointwise_power_constant(p), mu^ the part of mu inside the unit ball and
    mu-check the rest.  On measures inside the unit ball the TV term is 0.
    """
    res = doubling_maximize(u, v, spec)
    alpha = 1.0 / spec.epsilon
    grad = alpha * psi_kappa_grad(res.x_star - res.y_star, spec)

    dec_mu, dec_nu = decompose(mu), decompose(nu)
    dist_p = transport.distance(dec_mu.hat, dec_nu.hat, spec.p) ** spec.p
    tv_term = 2.0 * v.sup_norm() * tv_distance(dec_mu.check, dec_nu.check)

    lhs = levy_op_eval(u, res.x_star, mu, grad) - levy_op_eval(v, res.y_star, nu, grad)
    rhs = pointwise_power_constant(spec.p) * alpha * dist_p + tv_term
    return CouplingCheck(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs + tol,
        x_star=res.x_star,
        y_star=res.y_star,
        distance_p=dist_p,
        tv_term=tv_term,
    )


def _check_lam(lam: float) -> float:
    """``lam`` when it is positive and finite."""
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    return lam


@dataclass(frozen=True)
class EquationSpec:
    """One linear jump equation lam u - L u = -f on a periodic line.

    ``measures`` maps a base point to its jump measure.
    """

    lam: float
    f: Callable[[float], float]
    measures: Callable[[float], DiscreteMeasure]

    def __post_init__(self) -> None:
        _check_lam(self.lam)


@dataclass(frozen=True)
class EpsilonRow:
    epsilon: float
    kappa: float
    x_star: float
    y_star: float
    gap: float
    penalty_term: float
    distance_term: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: list[EpsilonRow]
    u: GridFunction
    v: GridFunction
    u_leq_v: bool
    penalty_decreasing: bool


def _assemble_periodic_operator(
    eq: EquationSpec, nodes: np.ndarray, length: float
) -> np.ndarray:
    """Dense matrix of lam u - L u on the periodic grid (linear in u).

    u(x + z) is linearly interpolated between the two neighbouring periodic
    nodes; the small-jump compensation uses the periodic central difference.
    Each row's entries are summed node by node and, within a node, atom by
    atom in the order interpolation, diagonal, compensation.  An atom with
    |z| >= 1 adds a zero compensation, which leaves every entry's bits as
    they are (no entry is ever -0.0).
    """
    n = nodes.size
    h = length / n
    measures = [eq.measures(float(x)) for x in nodes]
    z = np.concatenate([mu.positions[:, 0] for mu in measures])
    w = np.concatenate([mu.weights for mu in measures])
    i = np.repeat(np.arange(n), [mu.n_atoms for mu in measures])
    # interpolation of u(x_i + z) on the periodic line; t's floor is reduced
    # mod n as a float, since it may lie beyond the integer range
    t = (nodes[i] + z - nodes[0]) / h
    floor = np.floor(t)
    k0 = (floor % n).astype(np.intp)
    frac = t - floor
    comp = w * np.where(np.abs(z) < 1.0, z, 0.0) / (2.0 * h)
    # per atom: its five entries in summation order
    cols = np.stack([k0, (k0 + 1) % n, i, (i + 1) % n, (i - 1) % n], axis=1)
    vals = np.stack([-(w * (1.0 - frac)), -(w * frac), w, comp, -comp], axis=1)
    A = eq.lam * np.eye(n)
    np.add.at(A, (i[:, None], cols), vals)
    return A


def basic_idea_experiment(
    eq: EquationSpec,
    n_nodes: int = 512,
    epsilons: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> ExperimentReport:
    """Solve the linear equation exactly and run the two-point maximization.

    The line is [0, 2 pi) with periodic ends.  The exact periodic solve gives
    u; v adds the cushion 0.05 (1 - exp(-((x - pi)/0.8)^2) / 2), which thins
    out near pi, so the doubling maximum localises there.  Per epsilon, with
    kappa = 0.5 and p = 2, the report carries the zeroth-order gap
    lam (u(x*) - v(y*)), the transport term (1/eps) d(mu_x*, mu_y*)^2 and the
    penalty (1/eps)|x*-y*|^2.
    """
    length, kappa = 2.0 * math.pi, 0.5
    nodes = np.linspace(0.0, length, n_nodes, endpoint=False)
    A = _assemble_periodic_operator(eq, nodes, length)
    rhs = -np.array([eq.f(float(x)) for x in nodes])
    u_vals = np.linalg.solve(A, rhs)

    bump = np.exp(-(((nodes - math.pi) / 0.8) ** 2))
    v_vals = u_vals + 0.05 * (1.0 - 0.5 * bump)

    u = GridFunction(np.array([0.0]), np.array([length - length / n_nodes]), u_vals)
    v = GridFunction(np.array([0.0]), np.array([length - length / n_nodes]), v_vals)

    rows = []
    for eps in epsilons:
        spec = PenalizationSpec(epsilon=eps, kappa=kappa, p=2.0)
        res = doubling_maximize(u, v, spec)
        x_st = float(res.x_star[0])
        y_st = float(res.y_star[0])
        mu_x = eq.measures(x_st)
        mu_y = eq.measures(y_st)
        d2 = transport.distance(mu_x, mu_y, 2.0)
        rows.append(
            EpsilonRow(
                epsilon=eps,
                kappa=kappa,
                x_star=x_st,
                y_star=y_st,
                gap=eq.lam * (float(u(np.array([x_st]))) - float(v(np.array([y_st])))),
                penalty_term=(x_st - y_st) ** 2 / eps,
                distance_term=d2 * d2 / eps,
            )
        )
    penalties = [r.penalty_term for r in rows]
    decreasing = all(b <= a + 1e-15 for a, b in zip(penalties, penalties[1:]))
    return ExperimentReport(
        rows=rows,
        u=u,
        v=v,
        u_leq_v=bool(np.all(u_vals <= v_vals)),
        penalty_decreasing=decreasing,
    )
