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
from numpy.lib.stride_tricks import sliding_window_view

from .measures import DiscreteMeasure, SchemaError, decompose, tv_distance, _check_p, _number_in
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
    function stays bounded and uniformly continuous on all of R^d.  The node
    coordinates along each axis are built once, as read-only arrays.
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
        for a, b in zip(lo.tolist(), hi.tolist()):
            _number_in(b - a, "every box extent hi - lo", 0.0, math.inf, rule="be positive and finite")
        if any(s < 2 for s in vals.shape):
            raise ValueError("need at least two nodes per axis")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", vals)
        axes = tuple(np.linspace(lo[k], hi[k], n) for k, n in enumerate(vals.shape))
        for a in axes:
            a.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.values.shape) - 1)

    def axes(self) -> tuple[np.ndarray, ...]:
        return self._axes

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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond the float range
        raise SchemaError(f"{source}: invalid grid function document: {exc}") from exc


def _check_epsilon(epsilon: float) -> float:
    # 1/epsilon overflows exactly for epsilon <= 2^-1024
    return _number_in(epsilon, "epsilon", 2.0 ** -1024, math.inf, rule="be positive and finite, with 1/epsilon finite")


def _check_kappa(kappa: float) -> float:
    return _number_in(kappa, "kappa", 0.0, 1.0)


def _check_delta(delta: float) -> float:
    return _number_in(delta, "delta", 0.0, math.inf, rule="be positive and finite")


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


def _window_width(a: np.ndarray, w: np.ndarray, delta: float) -> int:
    """Width B of the window a sup-convolution pass along axis ``a`` scores.

    With O = max w - min w and M = max |w|, the float penalty P of a pair is
    set against T = max((O + eta M)(1 + eta), 2^-1000), eta = 2^-44.  A pair
    with P >= T scores w(y) - P <= w(x) - eta M / 2 exactly, which is at
    least two units in the last place of w(x) below it (or 2^-1001 below it
    where M is tiny), so its float score is below w(x).  The reach is
    R = sqrt(max(delta T, 2^-1000)) (1 + eta) and half = floor(R / g) for
    the smallest gap g between adjacent nodes; a node more than half places
    from x lies farther than R from it.  Each of the dozen roundings on the
    way, in R, half, g and in the pair's own difference, square and
    quotient, costs a factor of at most 1 - 2^-53, which eta covers, and the
    floors keep every quantity normal, so such a pair has P >= T.  B = n
    where g is not positive or half is not below n: an infinite R (O or
    delta T overflows) or a zero gap scans the whole axis.
    """
    n, eta, tiny = a.size, 2.0 ** -44, 2.0 ** -1000
    top, bottom = float(w.max()), float(w.min())
    drop = max((top - bottom + eta * max(top, -bottom)) * (1.0 + eta), tiny)
    reach = math.sqrt(max(delta * drop, tiny)) * (1.0 + eta)
    gap = float(np.min(a[1:] - a[:-1]))
    half = reach / gap if gap > 0.0 else math.inf
    return min(n, 2 * math.floor(half) + 1) if half < n else n


def sup_convolution(
    u: GridFunction, delta: float, with_achievers: bool = False
):
    """Discrete sup-convolution: max over nodes y of u(y) - |x - y|^2 / delta.

    The penalty is a sum over axes, so the maximum over the whole node set is
    exact as one 1-d max pass per axis.  The achieving node always lies within
    distance sqrt(2 delta ||u||_inf) of x, so nothing is lost by the finite
    box.  With ``with_achievers`` the flat index of the achieving node per
    evaluation node is returned alongside.  Ties resolve to the lowest index
    on the last axis, then, among those, on the axis before it, and so on to
    the first.

    Each pass scores node x only against a window of B = min(n, 2 half + 1)
    of the axis's n nodes, starting at clip(x - half, 0, n - B), for
    O(N sum_k B_k) work over N nodes.  A node y farther than the reach
    R = sqrt(delta (max w - min w)) from x, where w is the pass's input,
    scores below w(x), which is x's own score.  half = floor(R / g) for the
    smallest gap g between the axis's nodes, with R widened by a rounding
    allowance (``_window_width``) so that every node outside the window
    scores strictly below w(x) in floats too.  Each scored pair keeps the
    expression w(y) - (x - y)^2 / delta, so values and achievers are those
    of scoring every node, bit for bit.  Where R or half is not finite,
    B = n.
    """
    delta = _check_delta(delta)
    w = u.values
    args = []
    for k, a in enumerate(u.axes()):
        n, width = a.size, _window_width(a, w, delta)
        start = np.clip(np.arange(n) - (width - 1) // 2, 0, n - width)
        # cand[..., x_k, j]: the running maximum at y_k = start[x_k] + j, penalised.
        ay = sliding_window_view(a, width)[start]
        wy = sliding_window_view(np.moveaxis(w, k, -1), width, axis=-1)[..., start, :]
        cand = wy - (a[:, None] - ay) ** 2 / delta
        arg = np.argmax(cand, axis=-1)
        w = np.moveaxis(np.take_along_axis(cand, arg[..., None], axis=-1)[..., 0], -1, k)
        args.append(np.moveaxis(start + arg, -1, k))
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
    # u at x and at every x + z_i in one call; each point is interpolated alone
    at = u(np.vstack([x, x[None, :] + mu.positions]))
    ux, shifted = at[0], at[1:]
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
    - u is cut into tiles of ``_TILE`` nodes per axis.  A pair (x, y) with x
      in tile T scores at most b - (1/eps) psi_kappa(x - y) for any bound
      b >= u(x) - v(y), so it can reach L only if |x - y| <= R(b), where
      (1/eps) psi_kappa(R(b)) = b - L (psi_kappa grows with |h|).  With the
      global bound b = max_T u - min v, a tile with b < L is skipped, and
      each other tile gets the v sub-box within R of it along every axis;
    - each (tile T, v node y in its sub-box) pair is then tested with its
      own bound b = max_T u - v(y), and kept only when b >= L and the
      distance from y to T's bounding box is at most R(b);
    - rounding margin: a float score differs from the exact score of the
      same node coordinates by less than (d + 28) 2^-53 times
      |u(x)| + |v(y)| + (1/eps)(kappa + |x - y|^2)^{p/2}, allowing pow four
      units in the last place.  With eta = (d + 64) 2^-50, every bound gets
      eta (max|u| + max|v| + |L| + kappa^{p/2}/eps) added and is scaled by
      1 + eta; R^2 gets eta (kappa + R^2) added, R is scaled by 1 + eta and
      gets eta times the largest |coordinate| added.  This covers that error
      and the rounding in the bound and in R.  The distance is compared
      squared, as the sum over axes of the squared gaps against R^2, and
      its half dozen roundings stay inside R's relative widening.  So every
      pair whose float score can reach L is scored.  The margins are
      relative: they take kappa and the scale of the grid values to lie far
      above the subnormal range.

    All kept pairs, each against every u node of its tile, are scored in
    one array.  Work and memory are _TILE^d scores per kept (tile, v node)
    pair, one bound per pair of a tile's sub-box and the nearest-node pass:
    on the 2-D 48x48 grids of the ``coupling`` suite about 11,400 scores a
    call, against the 213,547 that the global bound alone leaves and the
    N M = 5,308,416 of the dense scan.  u(x) - v(y) must not
    overflow; a penalty that does scores -inf, as in the dense scan.
    """
    if u.dim != v.dim:
        raise ValueError("grids must share the ambient dimension")
    v_min = float(v.values.min())
    if not math.isfinite(float(u.values.max()) - v_min):
        raise ValueError("u(x) - v(y) overflows; rescale the grid values")
    dim, alpha = u.dim, 1.0 / spec.epsilon
    ax_u, ax_v = u.axes(), v.axes()
    # an overflowing penalty scores -inf, and an infinite bound only means scoring more pairs
    with np.errstate(over="ignore"):
        # L: every u node against its nearest v node, found axis by axis
        near = []
        for a, b in zip(ax_u, ax_v):
            j = np.clip(np.searchsorted(b, a), 1, b.size - 1)
            near.append(j - (a - b[j - 1] <= b[j] - a))
        sq_near = [_along((a - b[j]) ** 2, k, dim) for k, (a, b, j) in enumerate(zip(ax_u, ax_v, near))]
        lower = float(_scores(u.values, v.values[np.ix_(*near)], sq_near, alpha, spec).max())

        eta = (dim + 64) * 2.0 ** -50
        kpow = spec.kappa ** (spec.p / 2.0)
        scale = np.abs(np.concatenate([u.lo, u.hi, v.lo, v.hi])).max()
        slack = eta * (np.abs(u.values).max() + np.abs(v.values).max() + abs(lower) + alpha * kpow)

        def widened(bound):
            """The widened bound minus L, and the radius R a pair under it can reach L within."""
            reach = (bound - lower + slack) * (1.0 + eta)
            r2 = (np.maximum(reach, 0.0) / alpha + kpow) ** (2.0 / spec.p) - spec.kappa
            return reach, np.sqrt(np.maximum(r2 + eta * (spec.kappa + np.abs(r2)), 0.0)) * (1.0 + eta) + eta * scale

        # u's node coordinates and values cut into tiles, (tile, offset) per
        # axis; past the grid's end a tile repeats its last node
        n_tiles = [-(-n // _TILE) for n in u.values.shape]
        cut = [np.minimum(np.arange(m * _TILE), n - 1) for m, n in zip(n_tiles, u.values.shape)]
        x_tiles = [a[c].reshape(m, _TILE) for a, c, m in zip(ax_u, cut, n_tiles)]
        u_tiles = u.values[np.ix_(*cut)].reshape([m for n in n_tiles for m in (n, _TILE)])
        u_tiles = np.ascontiguousarray(u_tiles.transpose([*range(0, 2 * dim, 2), *range(1, 2 * dim, 2)]))
        tile_max = u_tiles.max(axis=tuple(range(dim, 2 * dim)))

        # per tile: the global bound, and the v index range [lo, hi) within R of it along each axis
        reach, radius = widened(tile_max - v_min)
        live = reach >= 0.0
        box = []
        for k, (x, b) in enumerate(zip(x_tiles, ax_v)):
            lo = np.searchsorted(b, _along(x[:, 0], k, dim) - radius, "left")
            hi = np.searchsorted(b, _along(x[:, -1], k, dim) + radius, "right")
            live &= hi > lo
            box.append((lo, hi))

        # every (live tile, v node in its sub-box) pair: its tile t and its v node yj, per axis
        tiles = np.nonzero(live)
        count = [hi[tiles] - lo[tiles] for lo, hi in box]
        size = math.prod(count)
        pick = np.repeat(np.arange(size.size), size)
        rank = np.arange(pick.size) - np.repeat(np.cumsum(size) - size, size)
        yj = [None] * dim
        for k in reversed(range(dim)):
            yj[k] = box[k][0][tiles][pick] + rank % count[k][pick]
            rank = rank // count[k][pick]
        t = [tk[pick] for tk in tiles]

        # keep a pair when y lies within R(max_T u - v(y)) of the tile's bounding box
        reach, radius = widened(tile_max[tuple(t)] - v.values[tuple(yj)])
        gap_sq = 0.0
        for x, b, tk, y in zip(x_tiles, ax_v, t, yj):
            gap_sq = gap_sq + np.maximum(np.maximum(x[tk, 0] - b[y], b[y] - x[tk, -1]), 0.0) ** 2
        kept = (reach >= 0.0) & (gap_sq <= radius ** 2)
        t, yj = [tk[kept] for tk in t], [y[kept] for y in yj]

        # each kept pair against the _TILE^d u nodes of its tile, laid out as
        # (pair, offset per axis); a copy of a tile's last node never comes
        # before the node itself
        sq = [
            (x[tk].reshape((-1,) + (1,) * k + (_TILE,) + (1,) * (dim - k - 1)) - _along(b[y], 0, dim + 1)) ** 2
            for k, (x, b, tk, y) in enumerate(zip(x_tiles, ax_v, t, yj))
        ]
        w = _scores(u_tiles[tuple(t)], _along(v.values[tuple(yj)], 0, dim + 1), sq, alpha, spec)
        w = w.reshape(t[0].size, -1)

    # per pair its first maximum, the smallest x; then the lexicographically
    # smallest flat (x, y) among the pairs that reach the best score
    arg = np.argmax(w, axis=1)
    top = w[np.arange(arg.size), arg]
    tie = np.flatnonzero(top == top.max())
    offset = np.unravel_index(arg[tie], (_TILE,) * dim)
    x_flat = np.ravel_multi_index([_TILE * tk[tie] + o for tk, o in zip(t, offset)], u.values.shape)
    y_flat = np.ravel_multi_index([y[tie] for y in yj], v.values.shape)
    best = np.lexsort((y_flat, x_flat))[0]
    xi, yi = np.unravel_index(x_flat[best], u.values.shape), np.unravel_index(y_flat[best], v.values.shape)
    return DoublingResult(
        x_star=np.array([a[i] for a, i in zip(ax_u, xi)]),
        y_star=np.array([b[j] for b, j in zip(ax_v, yi)]),
        value=float(top[tie[best]]),
        index=(int(x_flat[best]), int(y_flat[best])),
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
    return _number_in(lam, "lam", 0.0, math.inf, rule="be positive and finite")


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
