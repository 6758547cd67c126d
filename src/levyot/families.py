"""Base-point-indexed jump measure families and their discretizations.

A family maps a point x to a measure mu_x: kernel densities K(x, z) dz,
fractional power-law densities a(x) |z|^{-d-sigma} with the three-way annulus
split, and push-forwards of a fixed reference measure, discretized on
geometric annular shells with one atom per cell at the cell's mass centroid.
In the kernel, fraclap ``full`` and constant configs x enters only through a
coefficient: the measure at x is one discretized |z|^{-d-sigma} times coef(x).

The regularity sweep measures how fast the hat parts separate as x moves:
ratio = distance(hat mu_x, hat mu_y) / |x - y|^s over a batch of pairs, each
distance from ``transport.solve``.  The measures of a grid family are radial
profiles on shared rays, which ``solve`` couples exactly ray by ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import _MAX_RADIUS, _MIN_RADIUS, DiscreteMeasure, SchemaError, decompose, measure_from_dict, _check_p
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
    "build_family",
]


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
    exact in-sector angular centroid factor in d = 2).  ``density`` gets every
    point of the grid in one (k, dim) array.
    """
    edges = grid.radial_edges(extra_breaks)
    dirs, ang_w = grid.directions(dim)

    sub = grid.refine
    # geometric subsamples within each shell, matched to power-law densities
    ratio = (edges[1:] / edges[:-1])[:, None] ** (np.arange(sub + 1)[None, :] / sub)
    sub_edges = edges[:-1, None] * ratio  # (n_cells, sub+1)
    sub_mid = 0.5 * (sub_edges[:, :-1] + sub_edges[:, 1:])  # (n_cells, sub)
    # exact volume of each radial sub-shell per unit solid angle
    sub_vol = (sub_edges[:, 1:] ** dim - sub_edges[:, :-1] ** dim) / dim
    n_cells = sub_mid.shape[0]

    # one density call on every point, laid out (direction, cell, subsample);
    # each cell still sums its own subsamples, so the result is direction-major
    pts = (sub_mid.reshape(1, -1, 1) * dirs[:, None, :]).reshape(-1, dim)
    vals = np.asarray(density(pts), dtype=float).reshape(len(dirs), n_cells, sub)
    if np.any(~np.isfinite(vals)):
        raise ValueError("density returned a non-finite value")
    if np.any(vals < 0):
        raise ValueError("density must be nonnegative")
    cell_mass = (vals * sub_vol).sum(axis=-1) * ang_w
    moment = (vals * sub_vol * sub_mid).sum(axis=-1) * ang_w
    keep = cell_mass > 0.0
    r_centroid = moment[keep] / cell_mass[keep]
    if dim == 2:
        # uniform-in-angle mass centroid of a sector sits slightly inside the ray
        half = math.pi / grid.n_angular
        dirs = (math.sin(half) / half) * dirs
    direction = np.nonzero(keep)[0]
    positions = r_centroid[:, None] * dirs[direction]
    lefts = np.broadcast_to(edges[:-1], keep.shape)[keep]
    return positions, cell_mass[keep], lefts


@dataclass(frozen=True)
class KernelFamily:
    """Measures with densities K(x, z) dz.

    ``density(x, Z)`` evaluates K at one base point and a batch of jump
    locations Z of shape (k, dim).
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int = 1


@dataclass(frozen=True)
class FracLaplFamily:
    """Densities a(x) |z|^{-dim-sigma} with order sigma strictly inside (1, 2).

    The splitting radius is r_x = a(x)^{1/sigma}.
    """

    a: Callable[[np.ndarray], float]
    sigma: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not 1.0 < self.sigma < 2.0:
            raise ValueError("sigma must lie strictly between 1 and 2")

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
        return lambda Z: coef * np.linalg.norm(Z, axis=1) ** expo


@dataclass(frozen=True)
class LevyItoFamily:
    """Push-forwards mu_x = (T_x)_# base of a fixed reference measure.

    ``maps(x)`` returns the vectorised transport map z -> T_x(z).
    """

    base: DiscreteMeasure
    maps: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    dim_out: int


def discretize_kernel(family: KernelFamily, x, grid: AnnularGrid) -> DiscreteMeasure:
    """Quadrature discretization of K(x, z) dz on the annular grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pos, w, _ = _discretize_density(lambda Z: family.density(x, Z), family.dim, grid)
    return DiscreteMeasure(family.dim, pos, w)


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
    whole = DiscreteMeasure(family.dim, pos, w)

    def pick(mask) -> DiscreteMeasure:
        if whole.n_atoms < w.size:  # two cells share a centroid: merge them only within a part
            return DiscreteMeasure(family.dim, pos[mask], w[mask])
        return whole._restrict(mask)

    hat = pick(lefts < min(rx, 1.0))
    tilde = pick((lefts >= rx) & (lefts < 1.0))
    check = pick(lefts >= 1.0)
    return hat, tilde, check


def pushforward(family: LevyItoFamily, x) -> DiscreteMeasure:
    """The image measure (T_x)_# base; mass mapped exactly onto the origin is dropped."""
    if family.base.n_atoms == 0:  # reshape(0, -1) below cannot infer the image width
        return DiscreteMeasure.empty(family.dim_out)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    img = np.asarray(family.maps(x)(family.base.positions), dtype=float).reshape(
        family.base.n_atoms, -1
    )
    if img.shape[1] != family.dim_out:
        raise ValueError("map images disagree with the declared output dimension")
    keep = np.any(img != 0.0, axis=1)  # the constructor refuses, by name, an image near but not at 0
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
    """Sweep rows and their largest ratio; ``certified`` counts the rows whose
    solve did not need the simplex (``SolveReport.path`` "line" or "rays")."""

    rows: list[PairResult]
    max_ratio: float
    p: float
    s: float
    certified: int


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s < math.inf:
        raise ValueError(f"regularity exponent s must be positive and finite, got {s!r}")
    return s


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
    its inner radius (the larger of the two endpoints per pair); a pair
    whose truncation cost or ratio is not finite raises ValueError.

    Each distance comes from ``transport.solve``; ``certified`` counts the
    rows it did not hand to the simplex.
    """
    p = _check_p(p)
    s = _check_s(s)

    prepared = []
    for x, y in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        sep = float(np.linalg.norm(x - y))
        if sep == 0.0:
            raise ValueError("sweep pairs must be distinct")
        try:
            scale = sep**s
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError(f"|x - y|^s = {sep!r}^{s!r} leaves the float range; use a smaller s")
        prepared.append((x, y, sep, scale))

    rows, certified = [], 0
    for x, y, sep, scale in prepared:
        tc = 0.0
        if truncation_cost is not None:
            tc = max(float(truncation_cost(x)), float(truncation_cost(y)))
            if not math.isfinite(tc):
                raise ValueError(f"truncation cost at x = {x.tolist()} or y = {y.tolist()} is {tc!r}, not finite")
        report = transport.solve(decompose(make_measure(x)).hat, decompose(make_measure(y)).hat, transport.CostSpec(p))
        ratio = report.distance / scale
        if not math.isfinite(ratio):
            raise ValueError(f"distance / |x - y|^s = {report.distance!r} / {scale!r} overflows; use a smaller s")
        rows.append(PairResult(x=x, y=y, separation=sep, distance=report.distance, ratio=ratio, truncation_cost=tc))
        certified += report.path != "simplex"
    return SweepReport(rows=rows, max_ratio=max((r.ratio for r in rows), default=0.0), p=p, s=s, certified=certified)


def sweep_pairs(n_pairs: int, dim: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded (x, x + delta e) pairs: x uniform in [-1, 1]^dim, e a random unit
    vector, and separations delta log-spaced from 1e-3 to 0.5."""
    rng = np.random.default_rng(seed)
    if n_pairs <= 0:
        return []
    deltas = np.geomspace(1e-3, 0.5, n_pairs)
    pairs = []
    for delta in deltas:
        x = rng.uniform(-1.0, 1.0, size=dim)
        e = rng.normal(size=dim)
        e /= np.linalg.norm(e)
        pairs.append((x, x + delta * e))
    return pairs


# ---------------------------------------------------------------------------
# Config-driven family construction (CLI surface)
# ---------------------------------------------------------------------------

class FamilyRuntime:
    """A family bound to a grid: produces measures and truncation costs per x.

    The truncation cost at x is coef(x) times an x-free radial factor
    ``radial(p)``, computed at most once per runtime and p; a grid family's
    measure at x is coef(x) times its unit measure (``_grid_runtime``).
    """

    def __init__(self, dim: int, make, coef, radial):
        self.dim = dim
        self._make = make
        self._coef = coef
        self._radial = radial
        self._radial_at: dict[float, float] = {}

    def make_measure(self, x) -> DiscreteMeasure:
        return self._make(np.atleast_1d(np.asarray(x, dtype=float)))

    def truncation_cost(self, x, p: float) -> float:
        coef = self._coef(np.atleast_1d(np.asarray(x, dtype=float)))
        if p not in self._radial_at:
            self._radial_at[p] = self._radial(p)
        return coef * self._radial_at[p]


def _power_truncation(dim: int, sigma: float, p: float, grid: AnnularGrid) -> float:
    """p-cost of |z|^{-dim-sigma} dz inside r_min: the total angular weight times
    the radial integral of r^{p-1-sigma} over (0, r_min), finite only for p > sigma."""
    from scipy.integrate import quad

    dirs, ang_w = grid.directions(dim)
    expo = p - 1.0 - sigma
    # np.power, not **: a float ** that overflows raises where NumPy gives an
    # inf, which regularity_sweep refuses
    with np.errstate(over="ignore"):
        val, _ = quad(lambda r: np.power(r, expo), 0.0, grid.r_min, epsabs=1e-12, epsrel=1e-10)
    return len(dirs) * ang_w * val


def _unit_power_law(dim: int, sigma: float, grid: AnnularGrid) -> DiscreteMeasure:
    """|z|^{-dim-sigma} dz on the grid: a grid family's x-free factor, levyito's default base."""
    if not sigma > 0.0:
        raise ValueError(f"'sigma' must be positive, got {sigma!r}")
    pos, w, _ = _discretize_density(lambda Z: np.linalg.norm(Z, axis=1) ** -(dim + sigma), dim, grid)
    return DiscreteMeasure(dim, pos, w)


def _grid_runtime(dim: int, sigma: float, grid: AnnularGrid, coef, make=None) -> FamilyRuntime:
    """coef(x) |z|^{-dim-sigma} on the grid: the unit power law, built and checked once,
    keeps its sites at every x and takes coef(x) times its weights, unless ``make``
    builds each measure itself (``split_hat``)."""
    if make is None:
        unit = _unit_power_law(dim, sigma, grid)
        make = lambda x: unit._restrict(weights=coef(x) * unit.weights)
    return FamilyRuntime(dim, make=make, coef=coef, radial=lambda p: _power_truncation(dim, sigma, p, grid))


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


# Counts size arrays (shells, directions, subsamples) and feed float
# arithmetic, so a config may not ask for more than this, nor for a grid of
# more points (n_radial x directions x refine).
_MAX_COUNT = 1 << 20


def _count(section: dict, key: str, default: Optional[int] = None) -> int:
    val = section.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or not 1 <= val <= _MAX_COUNT:
        raise ValueError(f"{key!r} must be an integer in [1, {_MAX_COUNT}], got {val!r}")
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
    except (ValueError, OverflowError) as exc:  # OverflowError: float arithmetic on extreme parameters
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
    uses_grid = kind in ("kernel", "fraclap", "constant") or (kind == "levyito" and config.get("base") is None)
    if uses_grid and dim > 3:
        raise ValueError(f"annular grids support dimensions 1 to 3 only, got dim {dim}")
    points = grid.n_radial * (2 if dim == 1 else grid.n_angular) * grid.refine  # d = 1 has two directions
    if uses_grid and points > _MAX_COUNT:
        raise ValueError(f"the grid has {points} points (n_radial x directions x refine), more than {_MAX_COUNT}")

    if kind == "kernel":
        base = _number(params, "base", 1.0)
        amplitude = _number(params, "amplitude", 0.5)
        if not base - abs(amplitude) > 0.0:
            raise ValueError("kernel needs base - |amplitude| > 0, so the density stays positive")
        if _number(params, "lambda1", base + abs(amplitude)) < 0.0:  # lambda1, gamma: declarations (README)
            raise ValueError("kernel 'lambda1' must be nonnegative")
        if config.get("gamma") is not None:
            _number(config, "gamma")
        coef = lambda x: base + amplitude * math.sin(float(x[0]))
        return _grid_runtime(dim, _number(config, "sigma", 0.5), grid, coef=coef)

    if kind == "fraclap":
        sigma = _number(config, "sigma", 1.5)
        a0 = _number(params, "a0", 0.5)
        a1 = _number(params, "a1", 0.25)
        part = params.get("part", "full")
        if part not in ("full", "split_hat"):
            raise ValueError(f"unknown fraclap part {part!r}")
        if not (a0 - abs(a1) > 0.0 and a0 + abs(a1) <= 1.0):
            raise ValueError("fraclap needs 0 < a0 - |a1| and a0 + |a1| <= 1, so a(x) lies in (0, 1]")
        a = lambda x: (a0 + a1 * math.sin(float(x[0]))) ** sigma
        family = FracLaplFamily(a=a, sigma=sigma, dim=dim)
        make = (lambda x: split_fraclap(family, x, grid)[0]) if part == "split_hat" else None
        return _grid_runtime(dim, sigma, grid, coef=family.coefficient, make=make)

    if kind == "levyito":
        base_cfg = config.get("base")
        mkind = params.get("kind", "translation")
        # the default base and the scaling map read one sigma, so the push-forward is a(x)|z|^{-d-sigma}
        sigma = _number(config, "sigma", 1.5 if mkind == "scaling" else 0.5)
        if base_cfg is not None:
            base = measure_from_dict(base_cfg)
            if base.dim != dim:
                raise ValueError(f"base measure has dimension {base.dim}, family has {dim}")
        else:
            base = _unit_power_law(dim, sigma, grid)
        if mkind == "translation":
            shift = _number(params, "shift", 0.1)

            def maps(x):
                offset = np.zeros(dim)
                offset[0] = shift * math.sin(float(x[0]))
                return lambda Z: np.atleast_2d(Z) + offset[None, :]
        elif mkind == "scaling":
            a0 = _number(params, "a0", 0.5)
            a1 = _number(params, "a1", 0.25)
            if a0 - abs(a1) <= 0.0:
                raise ValueError("levyito scaling needs a0 > |a1|, so the scale stays positive")
            if not sigma > 0.0:
                raise ValueError(f"'sigma' must be positive, got {sigma!r}")
            # Every point's scale lies in [lo, hi], so checking both ends here
            # keeps each pushed-forward measure valid.
            try:
                lo, hi = ((a0 + s * abs(a1)) ** (1.0 / sigma) for s in (-1.0, 1.0))
            except OverflowError:
                raise ValueError("levyito scaling (a0 + |a1|) ** (1/sigma) overflows") from None
            low = lo * np.min(base.radii, initial=math.inf)  # inf for an empty base
            if not (low >= _MIN_RADIUS and hi * base.max_radius() <= _MAX_RADIUS):
                raise ValueError(
                    f"levyito scales {lo!r} to {hi!r} take the base atoms outside 2^-511 <= |z| <= 2^510"
                )

            def maps(x):
                scale = (a0 + a1 * math.sin(float(x[0]))) ** (1.0 / sigma)
                return lambda Z: scale * np.atleast_2d(Z)
        else:
            raise ValueError(f"unknown levyito map kind {mkind!r}")
        family = LevyItoFamily(base=base, maps=maps, dim_out=dim)
        return FamilyRuntime(dim, make=lambda x: pushforward(family, x), coef=lambda x: 0.0, radial=lambda p: 0.0)

    if kind == "constant":
        return _grid_runtime(dim, _number(config, "sigma", 0.5), grid, coef=lambda x: 1.0)

    raise ValueError(f"unknown family type {kind!r}")
