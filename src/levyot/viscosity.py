"""Grid machinery for the comparison-principle experiments.

Everything here operates on sampled functions over regular boxes: the
quadratic sup/inf-convolutions, the smoothed power penalty and its gradient,
evaluation of the nonlocal jump operator against a discrete measure, the
two-point penalized maximization, the coupling inequality that connects the
operator difference at a maximum to the transport distance of the measures,
and a small linear-equation experiment that runs the whole chain end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.spatial.distance import cdist

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

    def _interp(self) -> RegularGridInterpolator:
        cached = getattr(self, "_interp_cache", None)
        if cached is None:
            cached = RegularGridInterpolator(self.axes(), self.values, method="linear")
            object.__setattr__(self, "_interp_cache", cached)
        return cached

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        clamped = np.clip(pts, self.lo[None, :], self.hi[None, :])
        out = self._interp()(clamped)
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


@dataclass(frozen=True)
class PenalizationSpec:
    """Doubling penalty (1/epsilon) psi_kappa(x - y) with exponent p."""

    epsilon: float
    kappa: float
    p: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
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
def pointwise_power_constant(p: float, radius: float = 2.0, safety: float = 1.05) -> float:
    """Sampled uniform bound on the second-order penalty quotient.

    Dense 1-d sampling of |psi_kappa(a+h) - psi_kappa(a) - psi_kappa'(a) h| /
    |h|^p over base points and offsets in [-radius, radius] and the kappa grid
    {1e-6, 1e-3, 0.5}, times a small safety factor.  The quotient is bounded
    uniformly in kappa; the sampled value stands in for that constant.
    """
    p = _check_p(p)
    a = np.linspace(-radius, radius, 801)
    h = np.linspace(-radius, radius, 801)
    h = h[np.abs(h) > 1e-9]
    worst = 0.0
    for kappa in (1e-6, 1e-3, 0.5):
        base = (kappa + a * a) ** (p / 2.0)
        grad = p * a * (kappa + a * a) ** (p / 2.0 - 1.0)
        shifted = (kappa + (a[:, None] + h[None, :]) ** 2) ** (p / 2.0)
        resid = np.abs(shifted - base[:, None] - grad[:, None] * h[None, :])
        quot = resid / np.abs(h)[None, :] ** p
        worst = max(worst, float(quot.max()))
    return worst * safety


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
    if delta <= 0.0:
        raise ValueError("delta must be positive")
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


def inf_convolution(
    v: GridFunction, delta: float, with_achievers: bool = False
):
    """Discrete inf-convolution: min over nodes y of v(y) + |x - y|^2 / delta."""
    neg = sup_convolution(v.with_values(-v.values), delta, with_achievers)
    if with_achievers:
        res, arg = neg
        return res.with_values(-res.values), arg
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


def doubling_maximize(u: GridFunction, v: GridFunction, spec: PenalizationSpec) -> DoublingResult:
    """Exact maximizer of u(x) - v(y) - (1/eps) psi_kappa(x - y) over node pairs.

    Ties resolve to the lexicographically smallest (x, y) node index pair.
    """
    if u.dim != v.dim:
        raise ValueError("grids must share the ambient dimension")
    nx = u.nodes()
    ny = v.nodes()
    uu = u.values.reshape(-1)
    vv = v.values.reshape(-1)
    alpha = 1.0 / spec.epsilon
    kpow = spec.kappa ** (spec.p / 2.0)
    best = -math.inf
    best_idx = (0, 0)
    chunk = max(1, (1 << 22) // max(1, vv.size))
    for start in range(0, uu.size, chunk):
        stop = min(uu.size, start + chunk)
        sq = cdist(nx[start:stop], ny, "sqeuclidean")
        w = uu[start:stop, None] - vv[None, :] - alpha * (
            (spec.kappa + sq) ** (spec.p / 2.0) - kpow
        )
        k = int(np.argmax(w))
        val = float(w.flat[k])
        if val > best:
            best = val
            best_idx = (start + k // vv.size, k % vv.size)
    return DoublingResult(
        x_star=nx[best_idx[0]],
        y_star=ny[best_idx[1]],
        value=best,
        index=best_idx,
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
    full_measure: bool = False,
    xy_star: Optional[tuple[np.ndarray, np.ndarray]] = None,
    tol: float = 1e-8,
) -> CouplingCheck:
    """Operator difference at a doubling maximum against the transport bound.

    At the grid maximum (x*, y*) of u(x) - v(y) - (1/eps) psi_kappa(x - y):
    lhs = L_mu(u, x*) - L_nu(v, y*), with the compensation gradient read from
    the penalty's first-order condition; rhs = C_p (1/eps) distance(mu, nu)^p
    with C_p = pointwise_power_constant(p), plus 2 ||v||_inf d_TV of the parts
    outside the unit ball in the full-measure variant.
    """
    if not full_measure:
        for m, name in ((mu, "mu"), (nu, "nu")):
            if m.max_radius() >= 1.0:
                raise ValueError(f"{name} must live in the unit ball (or use full_measure)")

    res = doubling_maximize(u, v, spec)
    if xy_star is not None:
        x_st, y_st = xy_star
        claimed = (
            float(u(x_st)) - float(v(y_st)) - psi_kappa(np.asarray(x_st) - np.asarray(y_st), spec) / spec.epsilon
        )
        if claimed < res.value - 1e-12:
            raise ValueError("provided (x*, y*) is not a global grid maximum")
        res = DoublingResult(np.atleast_1d(np.asarray(x_st, float)), np.atleast_1d(np.asarray(y_st, float)), claimed, (-1, -1))

    alpha = 1.0 / spec.epsilon
    grad = alpha * psi_kappa_grad(res.x_star - res.y_star, spec)

    if full_measure:
        dec_mu, dec_nu = decompose(mu), decompose(nu)
        dist_p = transport.distance(dec_mu.hat, dec_nu.hat, spec.p) ** spec.p
        tv_term = 2.0 * v.sup_norm() * tv_distance(dec_mu.check, dec_nu.check)
    else:
        dist_p = transport.distance(mu, nu, spec.p) ** spec.p
        tv_term = 0.0

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


@dataclass(frozen=True)
class EquationSpec:
    """One linear jump-diffusion equation c(x) u - L u = -f on a periodic line.

    ``measures`` maps a base point to its jump measure; ``lam``/``lam1`` are
    the declared bounds on the zeroth-order coefficient, checked on sampled
    points.  ``lipschitz_C`` is the declared transport-Lipschitz constant of
    the family, used in the experiment report.
    """

    lam: float
    lam1: float
    c: Callable[[float], float]
    f: Callable[[float], float]
    measures: Callable[[float], DiscreteMeasure]
    lipschitz_C: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= self.lam1:
            raise ValueError("need 0 < lam <= lam1")

    def validate(self, xs: Sequence[float], tol: float = 1e-12) -> list[str]:
        out = []
        for x in xs:
            cx = float(self.c(float(x)))
            if not self.lam - tol <= cx <= self.lam1 + tol:
                out.append(f"coefficient bound violated at x={x}: c={cx}")
        return out


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
    """Dense matrix of c(x) u - L u on the periodic grid (linear in u).

    u(x + z) is linearly interpolated between the two neighbouring periodic
    nodes; the small-jump compensation uses the periodic central difference.
    """
    n = nodes.size
    h = length / n
    A = np.zeros((n, n))
    for i, xi in enumerate(nodes):
        A[i, i] += float(eq.c(float(xi)))
        mu = eq.measures(float(xi))
        for z, w in zip(mu.positions[:, 0], mu.weights):
            # interpolation of u(x_i + z) on the periodic line
            t = (xi + z - nodes[0]) / h
            k0 = int(math.floor(t)) % n
            frac = t - math.floor(t)
            A[i, k0] -= w * (1.0 - frac)
            A[i, (k0 + 1) % n] -= w * frac
            A[i, i] += w
            if abs(z) < 1.0:
                A[i, (i + 1) % n] += w * z / (2.0 * h)
                A[i, (i - 1) % n] -= w * z / (2.0 * h)
    return A


def basic_idea_experiment(
    eq: EquationSpec,
    n_nodes: int = 512,
    epsilons: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
    length: float = 2.0 * math.pi,
    margin: float = 0.05,
    bump_center: float = math.pi,
    bump_width: float = 0.8,
    kappa: float = 0.5,
) -> ExperimentReport:
    """Solve the linear equation exactly and run the two-point maximization.

    The exact periodic solve gives u; v adds a positive cushion that thins out
    near the bump centre, so the doubling maximum localises there.  Per
    epsilon the report carries the zeroth-order gap lam (u(x*) - v(y*)), the
    transport term (1/eps) d(mu_x*, mu_y*)^2 and the penalty (1/eps)|x*-y*|^2.
    """
    nodes = np.linspace(0.0, length, n_nodes, endpoint=False)
    bad = eq.validate(nodes[:: max(1, n_nodes // 64)])
    if bad:
        raise ValueError("; ".join(bad))
    A = _assemble_periodic_operator(eq, nodes, length)
    rhs = -np.array([eq.f(float(x)) for x in nodes])
    u_vals = np.linalg.solve(A, rhs)

    bump = np.exp(-(((nodes - bump_center) / bump_width) ** 2))
    v_vals = u_vals + margin * (1.0 - 0.5 * bump)

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
