"""Cheap bounds on the reservoir transport distance, from either side.

The upper bounds dominate the exact solver value: total-variation bounds for
measures inside the unit ball, the one-sided bound for ordered measures, the
cost of truncating small jumps, push-forward couplings, and the Lipschitz
test-function inequality.  The radial bound is a lower bound: the exact cost
between the radial push-forwards z -> |z|, the solver's staircase solve of
the half-line.  The fractional-kernel annulus checks integrate the continuum
radial densities in closed form rather than reusing atom discretizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import DiscreteMeasure, _check_p, _pow, _signed_sites, weight_by_power, tv_distance
from . import transport

__all__ = [
    "RadialTestFunction",
    "tv_power_bound",
    "is_ordered",
    "positive_part_dual_bound",
    "restriction_bound",
    "pushforward_bound",
    "restricted_integral_bound",
    "mutilde_checks",
    "radial_lower_bound",
    "sphere_area",
]

# Net site weights above -SIGN_TOL count as nonnegative in mu - nu.
SIGN_TOL = 1e-15


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{d-1} (2 for d=1: two ray points)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class RadialTestFunction:
    """Piecewise-linear radial profile psi(x) = f(|x|), zero outside the breakpoints.

    The profile is pinned to zero at both end breakpoints so the function is
    continuous on all of R^d, which makes its Lipschitz constant exactly the
    largest segment slope.
    """

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ValueError("need matching 1-d breakpoint and value arrays, length >= 2")
        if np.any(np.diff(r) <= 0) or r[0] < 0:
            raise ValueError("breakpoint radii must be strictly increasing and nonnegative")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints must be finite")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("profile must vanish at its first and last breakpoints")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    @classmethod
    def hat(cls, a: float, b: float, height: float = 1.0) -> "RadialTestFunction":
        """Triangular bump supported on the annulus [a, b]."""
        mid = 0.5 * (a + b)
        return cls(np.array([a, mid, b]), np.array([0.0, height, 0.0]))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.radii[0]), float(self.radii[-1])

    def lipschitz(self) -> float:
        slopes = np.diff(self.values) / np.diff(self.radii)
        return float(np.max(np.abs(slopes))) if slopes.size else 0.0

    def __call__(self, radii) -> np.ndarray:
        return np.interp(np.asarray(radii, dtype=float), self.radii, self.values, left=0.0, right=0.0)

    def integral(self, mu: DiscreteMeasure) -> float:
        return math.fsum((mu.weights * self(mu.radii)).tolist())

    def support_mass(self, mu: DiscreteMeasure) -> float:
        a, b = self.support
        mask = (mu.radii >= a) & (mu.radii <= b)
        return math.fsum(mu.weights[mask].tolist())


def _require_in_unit_ball(mu: DiscreteMeasure, name: str) -> None:
    if mu.max_radius() >= 1.0:
        raise ValueError(f"{name} must be supported inside the open unit ball")


def tv_power_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Distance bound 2^{(p-1)/p} * d_TV(mu_p, nu_p)^{1/p} for measures in B_1.

    ``mu_p`` denotes the measure reweighted by |z|^p.  For p = 1 this is the
    plain total variation of the reweighted measures.
    """
    p = _check_p(p)
    _require_in_unit_ball(mu, "mu")
    _require_in_unit_ball(nu, "nu")
    tv = tv_distance(weight_by_power(mu, p), weight_by_power(nu, p))
    return 2.0 ** ((p - 1.0) / p) * tv ** (1.0 / p)


def is_ordered(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """True when mu - nu >= 0 atomwise, so positive_part_dual_bound applies."""
    return not np.any(_signed_sites(mu, nu)[1] < -SIGN_TOL)


def positive_part_dual_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """The p-th power bound for ordered measures: distance^p <= p-moment of mu - nu.

    Requires mu - nu >= 0 atomwise (every nu atom matched by at least as much
    mu weight at the same site); raises on signed differences.
    """
    p = _check_p(p)
    first, net = _signed_sites(mu, nu)
    if np.any(net < -SIGN_TOL):
        raise ValueError(f"mu - nu is a signed measure (worst deficit {float(net.min())!r})")
    radii = np.concatenate([mu.radii, nu.radii])[first]
    return math.fsum((net * _pow(radii, p)).tolist())


def radial_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Lower bound R <= distance(mu, nu)^p: the exact cost between |z|_# mu and |z|_# nu.

    z -> |z| is 1-Lipschitz and keeps every reservoir cost |z|^p, so it maps
    any plan to one between the radial push-forwards that costs no more.  R
    is the value of their staircase solve (``transport._radial_staircase``).
    Equality holds in any dimension when both measures put one radial profile
    on every ray of a common set of equally weighted rays, as radial densities
    on a shared annular grid do.  Sharing the rays is not enough: in d = 1,
    delta_1 + delta_-2 against delta_-1 + delta_2 has R = 0 < distance.
    """
    cost = transport.CostSpec(p)
    transport._check_pair(mu, nu)
    _, _, mass, seg_cost, _, _ = transport._radial_staircase(mu, nu, cost)
    return math.fsum((mass * seg_cost).tolist())


def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"restriction radius must lie in (0, 1], got {r!r}")
    return r


def restriction_bound(mu: DiscreteMeasure, r: float, p: float) -> float:
    """Cost of stripping everything inside B_r: sum of |z|^p w over |z| < r.

    Dominates distance(mu, restrict_outside(mu, r))^p because one admissible
    plan sends exactly that mass to the reservoir and leaves the rest alone.
    """
    p = _check_p(p)
    r = _check_radius(r)
    mask = mu.radii < r
    return math.fsum((mu.weights[mask] * _pow(mu.radii[mask], p)).tolist())


def pushforward_bound(
    T1: Callable[[np.ndarray], np.ndarray],
    T2: Callable[[np.ndarray], np.ndarray],
    base: DiscreteMeasure,
    p: float,
) -> float:
    """Coupling bound sum_i w_i |T1(z_i) - T2(z_i)|^p between two push-forwards.

    The product map couples (T1)_# base with (T2)_# base; images at the
    origin land in the reservoir, which the displacement cost already prices
    correctly.
    """
    p = _check_p(p)
    if base.n_atoms == 0:  # reshape(0, -1) below cannot infer the image width
        return 0.0
    img1 = np.asarray(T1(base.positions), dtype=float).reshape(base.n_atoms, -1)
    img2 = np.asarray(T2(base.positions), dtype=float).reshape(base.n_atoms, -1)
    disp = np.linalg.norm(img1 - img2, axis=1)
    return math.fsum((base.weights * _pow(disp, p)).tolist())


def restricted_integral_bound(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    psi: RadialTestFunction,
    p: float,
    dist: float,
) -> tuple[float, float]:
    """Both sides of the Lipschitz test-function inequality.

    lhs = |integral of psi against mu - nu|;
    rhs = (mu(spt psi) + nu(spt psi))^{(p-1)/p} * Lip(psi) * dist, where
    ``dist`` is ``transport.distance(mu, nu, p)``, which callers have solved
    for already.  The test function must be supported in an annulus away
    from the origin and inside the closed unit ball.
    """
    p = _check_p(p)
    if not 0.0 <= dist < math.inf:
        raise ValueError(f"dist must be a finite distance >= 0, got {dist!r}")
    a, b = psi.support
    if a <= 0.0:
        raise ValueError("test function support must stay away from the origin")
    if b > 1.0:
        raise ValueError("test function support must lie inside the closed unit ball")
    _require_in_unit_ball(mu, "mu")
    _require_in_unit_ball(nu, "nu")
    lhs = abs(psi.integral(mu) - psi.integral(nu))
    mass = psi.support_mass(mu) + psi.support_mass(nu)
    rhs = mass ** ((p - 1.0) / p) * psi.lipschitz() * dist if mass > 0 else 0.0
    return lhs, rhs


def mutilde_checks(family, x, y) -> tuple[float, float]:
    """Mass and Lipschitz quotient of the mid-annulus piece of a fractional family.

    For the density a(x) |z|^{-d-sigma} split at r_x = a(x)^{1/sigma}, the
    middle piece lives on r_x <= |z| < 1.  Returns its total mass at ``x`` and
    the quotient (integral of |z| against the variation between x and y)
    divided by |x - y|, both integrated in closed form.
    """
    sigma = family.sigma
    if not 1.0 < sigma < 2.0:
        raise ValueError("annulus checks require sigma strictly between 1 and 2")
    d = family.dim
    omega = sphere_area(d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ax, ay = float(family.a(x)), float(family.a(y))
    for val in (ax, ay):
        if not 0.0 < val <= 1.0:
            raise ValueError("coefficient a(x) must lie in (0, 1]")
    rx = ax ** (1.0 / sigma)

    def radial(lo: float, hi: float, power: float) -> float:
        # the integral of r^power over [lo, hi]; power is -1 - sigma or -sigma, never -1
        return (hi ** (power + 1.0) - lo ** (power + 1.0)) / (power + 1.0) if hi > lo else 0.0

    # density against dz has the radial profile r^{d-1} * r^{-d-sigma}
    mass = omega * ax * radial(rx, 1.0, -1.0 - sigma)

    a_lo, a_hi = min(ax, ay), max(ax, ay)
    r_lo, r_hi = a_lo ** (1.0 / sigma), a_hi ** (1.0 / sigma)
    variation = omega * (
        a_lo * radial(r_lo, r_hi, -sigma)
        + (a_hi - a_lo) * radial(r_hi, 1.0, -sigma)
    )
    if variation == 0.0:
        return mass, 0.0
    sep = float(np.linalg.norm(x - y))
    if sep == 0.0:
        raise ValueError("x and y coincide but the annulus densities differ")
    return mass, variation / sep
