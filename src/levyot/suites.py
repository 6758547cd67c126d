"""Randomized invariant suites behind the ``verify`` command.

Each suite draws seeded instances, checks one family of invariants (strong
duality, metric axioms, oracle agreement, cheap-arc support, bound dominance,
convolution properties, the coupling inequality) and reports per-instance
pass/fail rows.  Failures carry enough data to replay a single instance from
its (suite, seed, index) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bounds, transport, viscosity
from .measures import DiscreteMeasure, SchemaError, _is_int, _is_number, _number_in, restrict_outside, tv_distance

__all__ = [
    "InstanceResult",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "replay",
    "random_measure",
    "random_unit_measure",
    "random_grid_function",
]

DEFAULT_TOLS = {
    "duality_rel": 1e-9,
    "symmetry": 1e-10,
    "triangle": 1e-8,
    "oracle": 1e-10,
    "ksupport": 1e-9,
    "bound_slack": 1e-8,
    "semiconvex": 1e-8,
    "coupling": 1e-8,
}


@dataclass(frozen=True)
class InstanceResult:
    index: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    rows: list[InstanceResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[InstanceResult]:
        return [r for r in self.rows if not r.passed]


def random_measure(
    rng: np.random.Generator,
    dim: int,
    max_atoms: int = 40,
    inner: float = 0.05,
    outer: float = 2.0,
    allow_empty: bool = True,
) -> DiscreteMeasure:
    """A random measure with atoms in the annulus [inner, outer]."""
    low = 0 if allow_empty else 1
    n = int(rng.integers(low, max_atoms + 1))
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(inner, outer, size=n)
    weights = rng.uniform(0.1, 3.0, size=n)
    return DiscreteMeasure(dim, radii[:, None] * dirs, weights)


def random_unit_measure(rng: np.random.Generator, dim: int, max_atoms: int = 5) -> DiscreteMeasure:
    """Unit-weight measure small enough for the exhaustive oracle."""
    n = int(rng.integers(0, max_atoms + 1))
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.05, 2.0, size=n)
    return DiscreteMeasure(dim, radii[:, None] * dirs, np.ones(n))


def random_grid_function(
    rng: np.random.Generator, dim: int, n_nodes: int, box: float = 1.0
) -> viscosity.GridFunction:
    """Random smooth sample of five trigonometric modes on a box grid, sup-norm one."""
    axis = np.linspace(-box, box, n_nodes)
    vals = np.zeros((n_nodes,) * dim)
    for k in range(1, 6):
        coef = rng.normal() / k
        phase = rng.uniform(0, 2 * math.pi, size=dim)
        # a product of per-axis cosines, each taken on its axis and broadcast
        wave = np.ones_like(vals)
        for ax in range(dim):
            wave = wave * viscosity._along(np.cos(k * math.pi * axis / box + phase[ax]), ax, dim)
        vals += coef * wave
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals / peak
    lo = np.full(dim, -box)
    hi = np.full(dim, box)
    return viscosity.GridFunction(lo, hi, vals)


def _p_choice(rng: np.random.Generator) -> float:
    return float(rng.choice([1.0, 1.5, 2.0]))


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# -- individual instance checks ---------------------------------------------

def _check_duality(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = int(rng.integers(1, 4))
    mu = random_measure(rng, dim)
    nu = random_measure(rng, dim)
    p = _p_choice(rng)
    rep = transport.solve(mu, nu, transport.CostSpec(p))
    limit = tols["duality_rel"] * (1.0 + rep.value)
    ok = rep.gap <= limit
    return InstanceResult(index, ok, f"gap={rep.gap:.3e} limit={limit:.3e} p={p}")


def _check_metric(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = int(rng.integers(1, 4))
    m1 = random_measure(rng, dim)
    m2 = random_measure(rng, dim)
    m3 = random_measure(rng, dim)
    p = _p_choice(rng)
    d12 = transport.distance(m1, m2, p)
    d21 = transport.distance(m2, m1, p)
    d13 = transport.distance(m1, m3, p)
    d23 = transport.distance(m2, m3, p)
    d11 = transport.distance(m1, m1, p)
    problems = []
    if abs(d12 - d21) > tols["symmetry"]:
        problems.append(f"symmetry off by {abs(d12 - d21):.3e}")
    if d11 != 0.0:
        problems.append(f"d(mu,mu)={d11!r}")
    if d13 > d12 + d23 + tols["triangle"]:
        problems.append(f"triangle violated by {d13 - d12 - d23:.3e}")
    if (d12 == 0.0) != (tv_distance(m1, m2) == 0.0):
        problems.append("zero distance does not match equality of measures")
    return InstanceResult(index, not problems, "; ".join(problems) or f"p={p} d12={d12:.6f}")


def _check_oracle(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = int(rng.integers(1, 4))
    mu = random_unit_measure(rng, dim)
    nu = random_unit_measure(rng, dim)
    p = _p_choice(rng)
    rep = transport.solve(mu, nu, transport.CostSpec(p))
    ref = transport.brute_force_unit(mu, nu, p)
    ok = abs(rep.value - ref) <= tols["oracle"]
    return InstanceResult(index, ok, f"solver={rep.value:.12f} oracle={ref:.12f}")


def _check_ksupport(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = int(rng.integers(1, 4))
    mu = random_measure(rng, dim)
    nu = random_measure(rng, dim)
    p = _p_choice(rng)
    rep = transport.solve(mu, nu, transport.CostSpec(p))
    arcs = transport.k_support_check(rep.plan, mu, nu, p, tol=tols["ksupport"])
    feas = transport.verify_plan(rep.plan, mu, nu)
    problems = []
    if arcs:
        problems.append(f"{len(arcs)} arcs outside the cheap set, worst {max(a[2] for a in arcs):.3e}")
    if feas:
        problems.append(f"{len(feas)} marginal violations")
    return InstanceResult(index, not problems, "; ".join(problems) or f"p={p}")


def _check_bounds(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = int(rng.integers(1, 4))
    p = _p_choice(rng)
    slack = tols["bound_slack"]
    problems = []

    mu = random_measure(rng, dim, max_atoms=15, inner=0.05, outer=0.95)
    nu = random_measure(rng, dim, max_atoms=15, inner=0.05, outer=0.95)
    dist = transport.distance(mu, nu, p)
    tvb = bounds.tv_power_bound(mu, nu, p)
    if tvb < dist - slack:
        problems.append(f"tv_power {tvb:.6f} < dist {dist:.6f}")

    extra = random_measure(rng, dim, max_atoms=6, inner=0.05, outer=0.95)
    total = DiscreteMeasure(
        dim,
        np.concatenate([nu.positions, extra.positions]),
        np.concatenate([nu.weights, extra.weights]),
    )
    ppb = bounds.positive_part_dual_bound(total, nu, p)
    dpow = transport.distance(total, nu, p) ** p
    if ppb < dpow - slack:
        problems.append(f"positive_part {ppb:.6f} < dist^p {dpow:.6f}")

    r = float(rng.uniform(0.1, 1.0))
    rb = bounds.restriction_bound(mu, r, p)
    drp = transport.distance(mu, restrict_outside(mu, r), p) ** p
    if rb < drp - slack:
        problems.append(f"restriction {rb:.6f} < dist^p {drp:.6f}")

    base = random_measure(rng, dim, max_atoms=10, inner=0.05, outer=1.5, allow_empty=False)
    shift = rng.normal(size=dim) * 0.1
    scale = float(rng.uniform(0.7, 1.3))
    T1 = lambda Z: np.atleast_2d(Z)
    T2 = lambda Z: scale * np.atleast_2d(Z) + shift[None, :]
    pfb = bounds.pushforward_bound(T1, T2, base, p)
    img1 = base
    img2_pos = T2(base.positions)
    keep = np.linalg.norm(img2_pos, axis=1) > 0
    img2 = DiscreteMeasure(dim, img2_pos[keep], base.weights[keep])
    dpf = transport.distance(img1, img2, p) ** p
    if pfb < dpf - slack:
        problems.append(f"pushforward {pfb:.6f} < dist^p {dpf:.6f}")

    a = float(rng.uniform(0.1, 0.4))
    b = float(rng.uniform(a + 0.2, 1.0))
    psi = bounds.RadialTestFunction.hat(a, b, height=float(rng.uniform(0.5, 2.0)))
    lhs, rhs = bounds.restricted_integral_bound(mu, nu, psi, p, dist)
    if lhs > rhs + slack:
        problems.append(f"restricted_integral lhs {lhs:.6f} > rhs {rhs:.6f}")

    return InstanceResult(index, not problems, "; ".join(problems) or f"p={p}")


def _check_supconv(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    dim = 1 if index % 2 == 0 else 2
    n_nodes = 512 if dim == 1 else 64
    u = random_grid_function(rng, dim, n_nodes)
    problems = []
    delta = 1e-2
    conv, ach = viscosity.sup_convolution(u, delta, with_achievers=True)
    convs = [viscosity.sup_convolution(u, 1e-1), conv, viscosity.sup_convolution(u, 1e-3)]
    # (1) monotone in delta, with the sup-norm never growing
    for small, big in zip(convs[1:], convs[:-1]):
        if not np.all(small.values <= big.values + 1e-12):
            problems.append("delta monotonicity failed")
            break
    if any(c.sup_norm() > u.sup_norm() + 1e-12 for c in convs):
        problems.append("sup norm grew")
    # (2) dominates u; the inf-convolution sits below
    if not np.all(convs[0].values >= u.values - 1e-12):
        problems.append("sup-convolution fell below u")
    inf_c = viscosity.inf_convolution(u, 1e-2)
    if not np.all(inf_c.values <= u.values + 1e-12):
        problems.append("inf-convolution rose above u")
    # (4) semiconvexity of the middle delta along every axis
    h = conv.spacing
    for ax in range(dim):
        arr = conv.values
        second = (
            np.diff(arr, n=2, axis=ax) / h[ax] ** 2
        )
        if not np.all(second >= -2.0 / delta - tols["semiconvex"]):
            problems.append(f"semiconvexity failed on axis {ax}")
    # (5) achieving nodes stay within the energy radius
    nodes = u.nodes()
    dist = np.linalg.norm(nodes - nodes[ach], axis=1)
    if not np.all(dist <= math.sqrt(2.0 * delta * u.sup_norm()) + 1e-12):
        problems.append("achieving node escaped the energy radius")
    return InstanceResult(index, not problems, "; ".join(problems) or f"dim={dim}")


def _check_coupling(seed: int, index: int, tols: dict) -> InstanceResult:
    rng = _rng_for(seed, index)
    p = _p_choice(rng)
    dim = 1 if index % 4 != 3 else 2
    n_nodes = 192 if dim == 1 else 48
    u = random_grid_function(rng, dim, n_nodes, box=2.0)
    v = random_grid_function(rng, dim, n_nodes, box=2.0)
    spec = viscosity.PenalizationSpec(
        epsilon=float(rng.uniform(0.05, 0.5)),
        kappa=float(rng.choice([1e-3, 0.1, 0.5])),
        p=p,
    )
    mu = random_measure(rng, dim, max_atoms=12, inner=0.05, outer=0.95, allow_empty=False)
    if index % 3 == 0:
        nu = mu
    else:
        nu = random_measure(rng, dim, max_atoms=12, inner=0.05, outer=0.95, allow_empty=False)
    chk = viscosity.coupling_inequality_check(u, v, spec, mu, nu, tol=tols["coupling"])
    return InstanceResult(
        index, chk.passed, f"lhs={chk.lhs:.6f} rhs={chk.rhs:.6f} p={p} eps={spec.epsilon:.3f}"
    )


SUITES: dict[str, Callable[[int, int, dict], InstanceResult]] = {
    "duality": _check_duality,
    "metric": _check_metric,
    "oracle": _check_oracle,
    "ksupport": _check_ksupport,
    "bounds": _check_bounds,
    "supconv": _check_supconv,
    "coupling": _check_coupling,
}


def _check_tol(tol: float) -> float:
    return _number_in(tol, "a tolerance", 0.0, math.inf, "[)", "be a finite number >= 0")


def _tolerances(overrides: Optional[dict]) -> dict:
    """DEFAULT_TOLS updated by ``overrides``; unknown names, non-numbers or
    values ``_check_tol`` refuses raise SchemaError."""
    overrides = overrides or {}
    if not isinstance(overrides, dict) or not all(
        k in DEFAULT_TOLS and _is_number(v) for k, v in overrides.items()
    ):
        raise SchemaError(f"tolerances {overrides!r} need names in {', '.join(DEFAULT_TOLS)} and numbers")
    try:
        for v in overrides.values():
            _check_tol(v)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    return {**DEFAULT_TOLS, **overrides}


def run_suite(name: str, n: int, seed: int, tol_overrides: Optional[dict] = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    tols = _tolerances(tol_overrides)
    check = SUITES[name]
    rows = [check(seed, index, tols) for index in range(n)]
    return SuiteReport(suite=name, seed=seed, rows=rows)


def replay(bundle: dict) -> InstanceResult:
    """Re-run a single failed instance from its reproducer bundle.

    The bundle is the object ``verify`` writes: a suite name, nonnegative
    integer ``seed`` and ``index``, and numeric ``tols`` overrides.  Any other shape
    raises SchemaError.
    """
    if not isinstance(bundle, dict) or bundle.get("suite") not in list(SUITES):
        raise SchemaError(f"replay bundle must be an object naming a suite in {', '.join(SUITES)}")
    seed, index = bundle.get("seed"), bundle.get("index")
    if not all(_is_int(v) and v >= 0 for v in (seed, index)):
        raise SchemaError(f"replay bundle 'seed' and 'index' must be nonnegative integers: {seed!r}, {index!r}")
    return SUITES[bundle["suite"]](seed, index, _tolerances(bundle.get("tols")))
