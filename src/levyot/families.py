"""Base-point-indexed jump measure families and their discretizations.

A family maps a point x to a measure mu_x: kernel densities K(x, z) dz,
fractional power-law densities a(x) |z|^{-d-sigma} with the three-way annulus
split, and push-forwards of a fixed reference measure.  Discretization uses
geometric annular shells with one atom per cell at the cell's mass centroid.

The regularity sweep measures how fast the hat parts separate as x moves:
ratio = distance(hat mu_x, hat mu_y) / |x - y|^s over a batch of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .measures import DiscreteMeasure, SchemaError, decompose, measure_from_dict, _check_p
from . import transport

__all__ = [
    "AnnularGrid",
    "KernelFamily",
    "FracLaplFamily",
    "LevyItoFamily",
    "PairResult",
    "SweepReport",
    "discretize_kernel",
    "split_fraclap",
    "pushforward",
    "regularity_sweep",
    "sweep_pairs",
    "small_jump_profile",
    "build_family",
]


def _radial_power(Z: np.ndarray, expo: float) -> np.ndarray:
    """|z|^expo for every row z of Z."""
    return np.linalg.norm(np.atleast_2d(Z), axis=1) ** expo


@dataclass(frozen=True)
class AnnularGrid:
    """Geometric annular discretization grid.

    Shells partition [r_min, r_max) with constant ratio; each shell is split
    into ``n_angular`` directions (ignored for d = 1, which always uses the
    two rays).  ``refine`` radial subsamples per shell feed the cell-mass
    quadrature and the centroid placement.
    """

    r_min: float = 1e-3
    r_max: float = 1.0
    n_radial: int = 200
    n_angular: int = 8
    refine: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if self.n_radial < 1 or self.n_angular < 1 or self.refine < 1:
            raise ValueError("shell counts and refinement must be positive")

    def radial_edges(self, extra: Sequence[float] = ()) -> np.ndarray:
        edges = np.geomspace(self.r_min, self.r_max, self.n_radial + 1)
        extra = [e for e in extra if self.r_min < e < self.r_max]
        if extra:
            edges = np.unique(np.concatenate([edges, np.asarray(extra, dtype=float)]))
        return edges

    def directions(self, dim: int) -> tuple[np.ndarray, float]:
        """Unit directions and the angular weight each one carries."""
        if dim == 1:
            return np.array([[1.0], [-1.0]]), 1.0
        if dim == 2:
            theta = 2.0 * math.pi * (np.arange(self.n_angular) + 0.5) / self.n_angular
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return dirs, 2.0 * math.pi / self.n_angular
        if dim == 3:
            k = np.arange(self.n_angular)
            golden = math.pi * (3.0 - math.sqrt(5.0))
            zc = 1.0 - 2.0 * (k + 0.5) / self.n_angular
            rad = np.sqrt(np.maximum(0.0, 1.0 - zc * zc))
            phi = golden * k
            dirs = np.stack([rad * np.cos(phi), rad * np.sin(phi), zc], axis=1)
            return dirs, 4.0 * math.pi / self.n_angular
        raise ValueError("annular grids support dimensions 1 to 3 only")


def _discretize_density(
    density: Callable[[np.ndarray], np.ndarray],
    dim: int,
    grid: AnnularGrid,
    extra_breaks: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One atom per (shell, direction) cell: mass centroid and quadrature weight.

    Returns (positions, weights, cell_left_edges) with zero-mass cells dropped.
    The weight is the midpoint-refined quadrature of the density against the
    exact shell volumes; the centroid averages the radial subsamples (with the
    exact in-sector angular centroid factor in d = 2).
    """
    edges = grid.radial_edges(extra_breaks)
    dirs, ang_w = grid.directions(dim)
    n_cells = edges.size - 1

    sub = grid.refine
    # geometric subsamples within each shell, matched to power-law densities
    ratio = (edges[1:] / edges[:-1])[:, None] ** (np.arange(sub + 1)[None, :] / sub)
    sub_edges = edges[:-1, None] * ratio  # (n_cells, sub+1)
    sub_mid = 0.5 * (sub_edges[:, :-1] + sub_edges[:, 1:])  # (n_cells, sub)
    # exact volume of each radial sub-shell per unit solid angle
    sub_vol = (sub_edges[:, 1:] ** dim - sub_edges[:, :-1] ** dim) / dim

    if dim == 2:
        # uniform-in-angle mass centroid of a sector sits slightly inside the ray
        half = math.pi / grid.n_angular
        angular_pull = math.sin(half) / half
    else:
        angular_pull = 1.0

    positions = []
    weights = []
    lefts = []
    flat_r = sub_mid.reshape(-1)
    for e in dirs:
        pts = flat_r[:, None] * e[None, :]
        vals = np.asarray(density(pts), dtype=float).reshape(n_cells, sub)
        if np.any(~np.isfinite(vals)):
            raise ValueError("density returned a non-finite value")
        if np.any(vals < 0):
            raise ValueError("density must be nonnegative")
        cell_mass = (vals * sub_vol).sum(axis=1) * ang_w
        moment = (vals * sub_vol * sub_mid).sum(axis=1) * ang_w
        keep = cell_mass > 0.0
        r_centroid = moment[keep] / cell_mass[keep]
        positions.append(r_centroid[:, None] * (angular_pull * e)[None, :])
        weights.append(cell_mass[keep])
        lefts.append(edges[:-1][keep])
    return np.concatenate(positions), np.concatenate(weights), np.concatenate(lefts)


@dataclass(frozen=True)
class KernelFamily:
    """Measures with densities K(x, z) dz under a power-law envelope.

    ``density(x, Z)`` evaluates K at one base point and a batch of jump
    locations Z of shape (k, dim).  The envelope is lambda1 |z|^{-(dim+sigma)};
    ``holder_gamma``, when declared, asserts |K(x,z) - K(y,z)| <=
    |x-y|^gamma * envelope(z).
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: float
    lambda1: float
    dim: int = 1
    holder_gamma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sigma <= 0.0 or self.lambda1 < 0.0:
            raise ValueError("need sigma > 0 and a nonnegative envelope constant")

    def envelope(self, Z: np.ndarray) -> np.ndarray:
        return self.lambda1 * _radial_power(Z, -(self.dim + self.sigma))

    def validate(self, xs: Sequence[np.ndarray], Z: np.ndarray, tol: float = 1e-9) -> list[str]:
        """Sampled envelope and Holder checks; empty list when all hold."""
        out: list[str] = []
        env = self.envelope(Z)
        vals = {tuple(np.atleast_1d(x)): np.asarray(self.density(np.atleast_1d(x), Z)) for x in xs}
        for key, kv in vals.items():
            if np.any(kv < -tol):
                out.append(f"negative density at x={key}")
            if np.any(kv > env + tol):
                out.append(f"envelope violated at x={key}")
        if self.holder_gamma is not None:
            keys = list(vals)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    gap = np.abs(vals[keys[i]] - vals[keys[j]])
                    sep = np.linalg.norm(np.array(keys[i]) - np.array(keys[j]))
                    if np.any(gap > sep ** self.holder_gamma * env + tol):
                        out.append(f"Holder bound violated between x={keys[i]} and x={keys[j]}")
        return out


@dataclass(frozen=True)
class FracLaplFamily:
    """Densities a(x) |z|^{-dim-sigma} with order sigma strictly inside (1, 2).

    ``lipschitz_L`` declares the Lipschitz constant of x -> a(x)^{1/sigma},
    which also fixes the splitting radius r_x = a(x)^{1/sigma}.
    """

    a: Callable[[np.ndarray], float]
    sigma: float
    lipschitz_L: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not 1.0 < self.sigma < 2.0:
            raise ValueError("sigma must lie strictly between 1 and 2")
        if self.lipschitz_L < 0.0:
            raise ValueError("Lipschitz constant must be nonnegative")

    def coefficient(self, x) -> float:
        val = float(self.a(np.atleast_1d(np.asarray(x, dtype=float))))
        if not 0.0 < val <= 1.0:
            raise ValueError(f"a(x) must lie in (0, 1], got {val}")
        return val

    def split_radius(self, x) -> float:
        return self.coefficient(x) ** (1.0 / self.sigma)

    def density_at(self, x) -> Callable[[np.ndarray], np.ndarray]:
        coef = self.coefficient(x)
        expo = -(self.dim + self.sigma)
        return lambda Z: coef * _radial_power(Z, expo)


@dataclass(frozen=True)
class LevyItoFamily:
    """Push-forwards mu_x = (T_x)_# base of a fixed reference measure.

    ``maps(x)`` returns the vectorised transport map z -> T_x(z); ``rho``
    evaluates the declared growth profile on base atoms, with |T_x(z)| <=
    bound_C rho(z) and |T_x(z) - T_y(z)| <= bound_C rho(z) |x - y|.
    """

    base: DiscreteMeasure
    maps: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    rho: Callable[[np.ndarray], np.ndarray]
    bound_C: float
    dim_out: int

    def validate_bounds(self, xs: Sequence, tol: float = 1e-9) -> list[str]:
        out: list[str] = []
        if self.base.n_atoms == 0:  # reshape(0, -1) below cannot infer the image width
            return out
        prof = self.bound_C * np.asarray(self.rho(self.base.positions), dtype=float)
        images = {}
        for x in xs:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            img = np.asarray(self.maps(x)(self.base.positions), dtype=float).reshape(
                self.base.n_atoms, -1
            )
            images[tuple(x)] = img
            if np.any(np.linalg.norm(img, axis=1) > prof + tol):
                out.append(f"growth bound violated at x={tuple(x)}")
        keys = list(images)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                sep = np.linalg.norm(np.array(keys[i]) - np.array(keys[j]))
                gap = np.linalg.norm(images[keys[i]] - images[keys[j]], axis=1)
                if np.any(gap > prof * sep + tol):
                    out.append(f"map Lipschitz bound violated between {keys[i]} and {keys[j]}")
        return out


def _discretize(density: Callable[[np.ndarray], np.ndarray], dim: int, grid: AnnularGrid) -> DiscreteMeasure:
    pos, w, _ = _discretize_density(density, dim, grid)
    return DiscreteMeasure(dim, pos, w)


def discretize_kernel(family: KernelFamily, x, grid: AnnularGrid) -> DiscreteMeasure:
    """Quadrature discretization of K(x, z) dz on the annular grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _discretize(lambda Z: family.density(x, Z), family.dim, grid)


def split_fraclap(
    family: FracLaplFamily, x, grid: AnnularGrid
) -> tuple[DiscreteMeasure, DiscreteMeasure, DiscreteMeasure]:
    """Discretize a(x)|z|^{-d-sigma} split into B_{r_x}, B_1 \\ B_{r_x}, B_1^c.

    The splitting radii are inserted as shell edges, so each returned piece is
    supported exactly inside its annulus and the three masses add up to the
    refined-grid discretization of the whole density.
    """
    rx = family.split_radius(x)
    pos, w, lefts = _discretize_density(
        family.density_at(x), family.dim, grid, extra_breaks=(rx, 1.0)
    )
    dim = family.dim

    def pick(mask) -> DiscreteMeasure:
        return DiscreteMeasure(dim, pos[mask], w[mask])

    hat = pick(lefts < min(rx, 1.0))
    tilde = pick((lefts >= rx) & (lefts < 1.0))
    check = pick(lefts >= 1.0)
    return hat, tilde, check


def pushforward(family: LevyItoFamily, x) -> DiscreteMeasure:
    """The image measure (T_x)_# base; mass mapped onto the origin is dropped."""
    if family.base.n_atoms == 0:  # reshape(0, -1) below cannot infer the image width
        return DiscreteMeasure.empty(family.dim_out)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    img = np.asarray(family.maps(x)(family.base.positions), dtype=float).reshape(
        family.base.n_atoms, -1
    )
    if img.shape[1] != family.dim_out:
        raise ValueError("map images disagree with the declared output dimension")
    keep = np.linalg.norm(img, axis=1) > 0.0
    return DiscreteMeasure(family.dim_out, img[keep], family.base.weights[keep])


@dataclass(frozen=True)
class PairResult:
    x: np.ndarray
    y: np.ndarray
    separation: float
    distance: float
    ratio: float
    truncation_cost: float


@dataclass(frozen=True)
class SweepReport:
    rows: list[PairResult]
    max_ratio: float
    p: float
    s: float


def regularity_sweep(
    make_measure: Callable[[np.ndarray], DiscreteMeasure],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    p: float,
    s: float,
    truncation_cost: Optional[Callable[[np.ndarray], float]] = None,
) -> SweepReport:
    """Distance-to-separation ratios of the hat parts over a batch of pairs.

    Each pair contributes distance(hat mu_x, hat mu_y) / |x - y|^s; the report
    carries the per-pair rows and the overall maximum.  ``truncation_cost``
    optionally reports the p-cost of mass the discretization discarded below
    its inner radius (the larger of the two endpoints per pair).
    """
    p = _check_p(p)
    if s <= 0.0:
        raise ValueError("regularity exponent s must be positive")

    prepared = []
    for x, y in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        sep = float(np.linalg.norm(x - y))
        if sep == 0.0:
            raise ValueError("sweep pairs must be distinct")
        prepared.append((x, y, sep))

    def one(pair) -> PairResult:
        x, y, sep = pair
        hat_x = decompose(make_measure(x)).hat
        hat_y = decompose(make_measure(y)).hat
        dist = transport.distance(hat_x, hat_y, p)
        tc = 0.0
        if truncation_cost is not None:
            tc = max(float(truncation_cost(x)), float(truncation_cost(y)))
        return PairResult(x=x, y=y, separation=sep, distance=dist, ratio=dist / sep**s, truncation_cost=tc)

    rows = [one(pair) for pair in prepared]
    max_ratio = max((r.ratio for r in rows), default=0.0)
    return SweepReport(rows=rows, max_ratio=max_ratio, p=p, s=s)


def sweep_pairs(
    n_pairs: int,
    dim: int,
    seed: int,
    delta_min: float = 1e-3,
    delta_max: float = 0.5,
    box: float = 1.0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded (x, x + delta e) pairs with log-spaced separations in the box."""
    rng = np.random.default_rng(seed)
    if n_pairs <= 0:
        return []
    deltas = np.geomspace(delta_min, delta_max, n_pairs)
    pairs = []
    for delta in deltas:
        x = rng.uniform(-box, box, size=dim)
        e = rng.normal(size=dim)
        e /= np.linalg.norm(e)
        pairs.append((x, x + delta * e))
    return pairs


def small_jump_profile(
    make_measure: Callable[[np.ndarray], DiscreteMeasure],
    xs: Sequence[np.ndarray],
    radii: Sequence[float],
    p: float,
) -> list[float]:
    """Empirical modulus sup_x of the p-cost carried by jumps inside B_r.

    Reported per radius; no functional form is asserted beyond monotonicity,
    which the caller can check on the returned curve.
    """
    p = _check_p(p)
    measures = [make_measure(np.atleast_1d(np.asarray(x, dtype=float))) for x in xs]
    curve = []
    for r in radii:
        worst = 0.0
        for mu in measures:
            mask = mu.radii < r
            worst = max(worst, math.fsum((mu.weights[mask] * mu.radii[mask] ** p).tolist()))
        curve.append(worst)
    return curve


# ---------------------------------------------------------------------------
# Config-driven family construction (CLI surface)
# ---------------------------------------------------------------------------

class FamilyRuntime:
    """A family bound to a grid: produces measures and truncation costs per x."""

    def __init__(self, dim: int, make, trunc):
        self.dim = dim
        self._make = make
        self._trunc = trunc

    def make_measure(self, x) -> DiscreteMeasure:
        return self._make(np.atleast_1d(np.asarray(x, dtype=float)))

    def truncation_cost(self, x, p: float) -> float:
        return self._trunc(np.atleast_1d(np.asarray(x, dtype=float)), p)


def _kernel_truncation(density, dim: int, p: float, grid: AnnularGrid) -> float:
    """p-cost of the density's mass inside the grid's inner radius, by quadrature."""
    dirs, ang_w = grid.directions(dim)
    total = 0.0
    for e in dirs:
        val, _ = quad(
            lambda r: float(density(np.array([r * e]))[0]) * r ** (dim - 1 + p),
            0.0,
            grid.r_min,
            epsabs=1e-12,
            epsrel=1e-10,
        )
        total += val * ang_w
    return total


def _power_law(dim: int, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """The reference density |z|^{-dim-sigma}."""
    if sigma <= 0.0:
        raise ValueError("need sigma > 0 and a nonnegative envelope constant")
    expo = -(dim + sigma)
    return lambda Z: _radial_power(Z, expo)


def _section(config: dict, key: str) -> dict:
    val = config.get(key, {})
    if not isinstance(val, dict):
        raise ValueError(f"{key!r} must be an object, got {val!r}")
    return val


def _number(section: dict, key: str, default: Optional[float] = None) -> float:
    val = section.get(key, default)
    try:
        return float(val)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key!r} must be a number in the float range, got {val!r}") from None


def _count(section: dict, key: str, default: Optional[int] = None) -> int:
    val = section.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {val!r}")
    return val


_GRID_FIELDS = {"r_min": _number, "r_max": _number, "n_radial": _count, "n_angular": _count, "refine": _count}


def build_family(config: dict) -> FamilyRuntime:
    """Instantiate a family from its JSON descriptor.

    Supported types: "kernel" (sinusoidally modulated power-law density),
    "fraclap" (a(x)|z|^{-d-sigma} with the annulus split), "levyito"
    (translation or scaling push-forwards), and "constant".  Any malformed
    config raises SchemaError with a message starting "config error".
    """
    try:
        return _build_family(config)
    except (ValueError, OverflowError) as exc:  # OverflowError: a count too large for a float
        raise SchemaError(f"config error: {exc}") from exc


def _build_family(config: dict) -> FamilyRuntime:
    if not isinstance(config, dict) or "type" not in config:
        raise ValueError("family config must be an object with a 'type' field")
    kind = config["type"]
    dim = _count(config, "dim", 1)
    grid_cfg = _section(config, "grid")
    unknown = sorted(set(grid_cfg) - set(_GRID_FIELDS))
    if unknown:
        raise ValueError(f"unknown grid field(s) {', '.join(map(repr, unknown))}")
    grid = AnnularGrid(**{key: _GRID_FIELDS[key](grid_cfg, key) for key in grid_cfg})
    params = _section(config, "params")

    if kind == "kernel":
        sigma = _number(config, "sigma", 0.5)
        base = _number(params, "base", 1.0)
        amplitude = _number(params, "amplitude", 0.5)
        lambda1 = _number(params, "lambda1", base + abs(amplitude))
        expo = -(dim + sigma)

        def density(x, Z):
            return (base + amplitude * math.sin(float(x[0]))) * _radial_power(Z, expo)

        family = KernelFamily(
            density=density, sigma=sigma, lambda1=lambda1, dim=dim,
            holder_gamma=None if config.get("gamma", 1.0) is None else _number(config, "gamma", 1.0),
        )
        return FamilyRuntime(
            dim,
            make=lambda x: discretize_kernel(family, x, grid),
            trunc=lambda x, p: _kernel_truncation(lambda Z: density(x, Z), dim, p, grid),
        )

    if kind == "fraclap":
        sigma = _number(config, "sigma", 1.5)
        a0 = _number(params, "a0", 0.5)
        a1 = _number(params, "a1", 0.25)
        part = params.get("part", "full")
        if not (a0 - abs(a1) > 0.0 and a0 + abs(a1) <= 1.0):
            raise ValueError("fraclap needs 0 < a0 - |a1| and a0 + |a1| <= 1, so a(x) lies in (0, 1]")

        def a(x):
            return (a0 + a1 * math.sin(float(x[0]))) ** sigma

        family = FracLaplFamily(a=a, sigma=sigma, lipschitz_L=abs(a1), dim=dim)

        if part == "split_hat":
            make = lambda x: split_fraclap(family, x, grid)[0]
        elif part == "full":
            make = lambda x: _discretize(family.density_at(x), dim, grid)
        else:
            raise ValueError(f"unknown fraclap part {part!r}")
        return FamilyRuntime(
            dim,
            make=make,
            trunc=lambda x, p: _kernel_truncation(family.density_at(x), dim, p, grid),
        )

    if kind == "levyito":
        base_cfg = config.get("base")
        if base_cfg is not None:
            base = measure_from_dict(base_cfg)
            if base.dim != dim:
                raise ValueError(f"base measure has dimension {base.dim}, family has {dim}")
        else:
            base = _discretize(_power_law(dim, _number(config, "sigma", 0.5)), dim, grid)
        mkind = params.get("kind", "translation")
        if mkind == "translation":
            shift = _number(params, "shift", 0.1)

            def maps(x):
                offset = np.zeros(dim)
                offset[0] = shift * math.sin(float(x[0]))
                return lambda Z: np.atleast_2d(Z) + offset[None, :]

            rho = lambda Z: 1.0 + np.linalg.norm(np.atleast_2d(Z), axis=1)
            C = max(1.0, abs(shift))
        elif mkind == "scaling":
            sigma = _number(config, "sigma", 1.5)
            a0 = _number(params, "a0", 0.5)
            a1 = _number(params, "a1", 0.25)
            if a0 - abs(a1) <= 0.0:
                raise ValueError("levyito scaling needs a0 > |a1|, so the scale stays positive")

            def maps(x):
                scale = (a0 + a1 * math.sin(float(x[0]))) ** (1.0 / sigma)
                return lambda Z: scale * np.atleast_2d(Z)

            rho = lambda Z: np.linalg.norm(np.atleast_2d(Z), axis=1)
            C = 1.0
        else:
            raise ValueError(f"unknown levyito map kind {mkind!r}")
        family = LevyItoFamily(base=base, maps=maps, rho=rho, bound_C=C, dim_out=dim)
        return FamilyRuntime(dim, make=lambda x: pushforward(family, x), trunc=lambda x, p: 0.0)

    if kind == "constant":
        ref = _power_law(dim, _number(config, "sigma", 0.5))
        fixed = _discretize(ref, dim, grid)
        return FamilyRuntime(
            dim,
            make=lambda x: fixed,
            trunc=lambda x, p: _kernel_truncation(ref, dim, p, grid),
        )

    raise ValueError(f"unknown family type {kind!r}")
