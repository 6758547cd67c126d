"""Discrete representations of Levy measures.

A measure here is a finite list of weighted atoms in R^d \\ {0}.  The origin
is reserved for the mass reservoir: atoms sitting exactly at 0 are rejected,
because mass there is free to appear and disappear and carries no information.

The module provides the elementary functionals used everywhere else:
the capped p-mass ``n_p``, the ball/complement decomposition, restrictions
away from the origin, total-variation distance, and the |z|^p reweighting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "MeasureDecomposition",
    "SchemaError",
    "n_p",
    "decompose",
    "restrict_outside",
    "tv_distance",
    "weight_by_power",
    "measure_to_dict",
    "measure_from_dict",
    "load_measure",
]


class SchemaError(ValueError):
    """Raised when an input file (measure, grid, family config, bundle) is malformed."""


def _number_in(value, name: str, lo: float, hi: float, ends: str = "()", rule: str = "") -> float:
    """``value`` as a float in the interval from ``lo`` to ``hi``, each end open or
    closed as ``ends`` reads: "()", "(]", "[)" or "[]".

    Anything else raises ValueError "<name> must <rule>, got <value>", where
    ``rule`` defaults to "lie in" the interval: NaN, a float outside, and a value
    that does not convert, such as an integer beyond the float range.  This is
    the rule of every scalar parameter read from outside.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    # NaN fails every comparison
    if (lo < x if ends[0] == "(" else lo <= x) and (x < hi if ends[1] == ")" else x <= hi):
        return x
    rule = rule or f"lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    # the float, or the value as given where it is NaN or did not convert
    raise ValueError(f"{name} must {rule}, got {x if x == x else value!r}")


def _check_p(p: float) -> float:
    return _number_in(p, "exponent p", 1.0, 2.0, "[]")


def _pow(r: np.ndarray, p: float) -> np.ndarray:
    """|r|^p with exact fast paths for the endpoint exponents."""
    if p == 1.0:
        return np.asarray(r, dtype=float)
    if p == 2.0:
        r = np.asarray(r, dtype=float)
        return r * r
    return np.power(np.asarray(r, dtype=float), p)


def _merge_sites(pos: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the bit-identical rows of ``pos``: (first row of each site, summed weight).

    Sites come in order of first occurrence and each sum runs in input order,
    so the result matches a dict keyed by ``row.tobytes()`` bit for bit; in
    particular 0.0 and -0.0 are different sites.
    """
    n, dim = pos.shape
    rows = np.ascontiguousarray(pos).view(np.dtype((np.void, pos.itemsize * dim))).reshape(n)
    if n < 2 or np.unique(rows).size == n:  # no duplicates, the common case
        return np.arange(n), w.copy()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    total = np.zeros(order.size)
    np.add.at(total, np.argsort(order)[inverse], w)
    return first[order], total


def _checked_weights(w: np.ndarray) -> np.ndarray:
    """``w``, if its weights are positive and finite with a finite total; else a
    ValueError naming the first offending atom.  The rule of every measure's weights."""
    if not w.size:
        return w
    # a NaN fails both comparisons: min and max propagate it
    top = float(w.max())
    if not (w.min() > 0.0 and top < math.inf):
        k = int(np.argmin(np.isfinite(w) & (w > 0.0)))
        raise ValueError(f"atom {k}: weight must be positive and finite, got {w[k]}")
    # the total is at most n * max(w), so total_mass's fsum has to decide
    # only near the top of the float range
    if not top * w.size < 2.0 ** 1023:
        try:
            math.fsum(w.tolist())
        except OverflowError:
            raise ValueError("the total weight overflows the float range; rescale the weights") from None
    return w


def _check_finite(pos: np.ndarray) -> None:
    """A ValueError naming the first row of ``pos`` with a coordinate that is not finite, if any."""
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"atom {k}: coordinates must be finite, got {pos[k].tolist()}")


# Bounds on what a measure may hold.  A site's |z| <= 2^510 (about 3.4e153)
# keeps |z|^2 and every pair's |x - y|^2 <= (|x| + |y|)^2 <= 2^1022 finite;
# |z| >= 2^-511 (about 1.5e-154) keeps |z|^2 >= 2^-1022 a normal float, so
# no radius underflows to 0 or loses bits in subnormal squares.
# The dimension bound keeps a site's bytes within what NumPy can view as one
# record in ``_merge_sites``.
_MAX_RADIUS = 2.0 ** 510
_MIN_RADIUS = 2.0 ** -511
_MAX_DIM = 1 << 16


class DiscreteMeasure:
    """A finite positive measure on R^d \\ {0}, stored as parallel arrays.

    Atoms with bit-identical coordinates are merged at construction by
    summing their weights; no fuzzy matching is performed, so callers who
    want tolerance-based merging must snap coordinates first.

    Parameters
    ----------
    dim : int
        Ambient dimension, 1 <= d <= 65536.
    positions : array-like, shape (n, dim)
        Atom coordinates; every row has 2^-511 <= |z| <= 2^510.  n = 0 is the zero
        measure, which every function in the package accepts.
    weights : array-like, shape (n,)
        Strictly positive masses with a finite total.

    This constructor owns every numeric rule for atoms; its errors name the
    first offending atom by its input index.
    """

    __slots__ = ("dim", "positions", "weights", "_radii")

    def __init__(self, dim: int, positions, weights) -> None:
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if dim > _MAX_DIM:
            raise ValueError(f"dim must be at most {_MAX_DIM}, got {dim}")
        try:
            pos = np.asarray(positions, dtype=float).reshape(-1, dim)
            w = np.asarray(weights, dtype=float).reshape(-1)
        except OverflowError:  # an integer beyond the float range
            for k, (z, wk) in enumerate(zip(positions, weights)):
                try:
                    np.asarray(z, dtype=float), float(wk)
                except OverflowError:
                    raise ValueError(f"atom {k}: coordinate or weight is too large for a float") from None
            raise
        if pos.shape[0] != w.shape[0]:
            raise ValueError("positions and weights disagree in length")
        # the vectorised checks run first; an atom index is found only on
        # failure.  A coordinate that is not finite makes its |z| inf or NaN,
        # which the range test refuses, so coordinates are tested for
        # finiteness only where the weight or the range test fails; that
        # error takes precedence over both.
        try:
            w = _checked_weights(w)
        except ValueError:
            _check_finite(pos)
            raise
        first, w = _merge_sites(pos, w)
        raw, pos = pos, np.take(pos, first, axis=0)
        with np.errstate(over="ignore"):  # an overflowing |z| is rejected just below
            radii = np.linalg.norm(pos, axis=1)
        if radii.size and not (radii.min() >= _MIN_RADIUS and radii.max() <= _MAX_RADIUS):
            _check_finite(raw)
            in_range = (radii >= _MIN_RADIUS) & (radii <= _MAX_RADIUS)
            k = int(np.argmin(in_range))
            if radii[k] < _MIN_RADIUS:
                # the norm of the rescaled row does not underflow
                big = float(np.max(np.abs(pos[k])))
                if big == 0.0:
                    raise ValueError(f"atom {first[k]}: |z| = 0 is not allowed (the origin is the reservoir)")
                raise ValueError(
                    f"atom {first[k]}: |z| = {big * float(np.linalg.norm(pos[k] / big))!r} is below 2^-511 "
                    "(about 1.5e-154), where |z|^2 underflows; rescale the coordinates"
                )
            raise ValueError(
                f"atom {first[k]}: |z| = {float(radii[k])!r} exceeds 2^510 (about 3.4e153), "
                "beyond which squared distances overflow; rescale the coordinates"
            )

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_radii", radii)
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)
        self._radii.setflags(write=False)

    def __setattr__(self, name, value):  # measures are immutable once built
        raise AttributeError("DiscreteMeasure is immutable")

    @classmethod
    def empty(cls, dim: int) -> "DiscreteMeasure":
        return cls(dim, np.zeros((0, dim)), np.zeros(0))

    @property
    def n_atoms(self) -> int:
        return int(self.weights.shape[0])

    @property
    def radii(self) -> np.ndarray:
        return self._radii

    def total_mass(self) -> float:
        return math.fsum(self.weights.tolist())

    def p_moment(self, p: float) -> float:
        """The p-th cost moment: sum of w_i |z_i|^p."""
        p = _check_p(p)
        return math.fsum((self.weights * _pow(self._radii, p)).tolist())

    def max_radius(self) -> float:
        """Largest |z|; 0.0 for the zero measure, where an array max is undefined."""
        return float(self._radii.max()) if self.n_atoms else 0.0

    def _restrict(self, mask=slice(None), weights=None) -> "DiscreteMeasure":
        """The sub-measure on the atoms where ``mask`` is true, with ``weights`` if given.

        Its atoms are a subset of this measure's validated, merged sites, so
        it skips the constructor's site checks and merge; only new weights
        are checked, by the constructor's rule.  It equals the measure the
        constructor builds from the same rows and weights, bit for bit.
        """
        w = self.weights[mask] if weights is None else _checked_weights(np.asarray(weights, dtype=float))
        sub = object.__new__(DiscreteMeasure)
        object.__setattr__(sub, "dim", self.dim)
        for name, part in (("positions", self.positions[mask]), ("weights", w), ("_radii", self._radii[mask])):
            part.setflags(write=False)
            object.__setattr__(sub, name, part)
        return sub

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.dim == other.dim and tv_distance(self, other) == 0.0

    def __repr__(self) -> str:
        return f"DiscreteMeasure(dim={self.dim}, n_atoms={self.n_atoms}, mass={self.total_mass():.6g})"


@dataclass(frozen=True)
class MeasureDecomposition:
    """Split of a measure into the part inside the open unit ball and the rest."""

    hat: DiscreteMeasure
    check: DiscreteMeasure


def n_p(mu: DiscreteMeasure, p: float) -> float:
    """Capped p-mass: sum of min(1, |z_i|^p) w_i.  Zero for the empty measure."""
    p = _check_p(p)
    capped = np.minimum(1.0, _pow(mu.radii, p))
    return math.fsum((capped * mu.weights).tolist())


def decompose(mu: DiscreteMeasure) -> MeasureDecomposition:
    """Split atoms at the unit sphere: |z| < 1 goes to ``hat``, |z| >= 1 to ``check``."""
    inside = mu.radii < 1.0
    return MeasureDecomposition(hat=mu._restrict(inside), check=mu._restrict(~inside))


def restrict_outside(mu: DiscreteMeasure, r: float) -> DiscreteMeasure:
    """Keep only the atoms with |z| >= r (the measure with B_r emptied out)."""
    r = _number_in(r, "restriction radius", 0.0, math.inf, "(]", "be positive")
    return mu._restrict(mu.radii >= r)


def _check_dims(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    """The rule of every pair of measures: one ambient dimension."""
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")


def _signed_sites(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """mu - nu on the union of atom sites, compared bit-exactly.

    Returns (index, net): each site's first atom in mu's atoms followed by
    nu's, and its net weight.
    """
    _check_dims(mu, nu)
    return _merge_sites(
        np.concatenate([mu.positions, nu.positions]),
        np.concatenate([mu.weights, -nu.weights]),
    )


def tv_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total variation of mu - nu: sum over the union of atom sites of |w_mu - w_nu|.

    Sites are compared bit-exactly, matching the construction-time merge rule.
    """
    _, diff = _signed_sites(mu, nu)
    return math.fsum(np.abs(diff).tolist())


def weight_by_power(mu: DiscreteMeasure, p: float) -> DiscreteMeasure:
    """Reweight every atom by |z|^p, leaving positions unchanged."""
    p = _check_p(p)
    return mu._restrict(weights=mu.weights * _pow(mu.radii, p))


# ---------------------------------------------------------------------------
# JSON schema: { "dim": d, "atoms": [ { "z": [f, ...], "w": f } ] }
# ---------------------------------------------------------------------------

def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {
        "dim": mu.dim,
        "atoms": [
            {"z": [float(c) for c in mu.positions[k]], "w": float(mu.weights[k])}
            for k in range(mu.n_atoms)
        ],
    }


def _is_number(x) -> bool:
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """True for a JSON integer."""
    return isinstance(x, int) and _is_number(x)


def measure_from_dict(data: dict) -> DiscreteMeasure:
    """The measure in a parsed JSON document.

    Only the document's shape is checked here; ``DiscreteMeasure`` decides
    every numeric rule and its errors come back as SchemaError.
    """
    if not isinstance(data, dict):
        raise SchemaError("measure document must be a JSON object")
    dim = data.get("dim")
    if not _is_int(dim):
        raise SchemaError(f"missing or invalid 'dim' field: expected a JSON integer, got {dim!r}")
    atoms = data.get("atoms", [])
    if not isinstance(atoms, list):
        raise SchemaError("'atoms' must be a list")
    for idx, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "z" not in entry or "w" not in entry:
            raise SchemaError(f"atom {idx} must be an object with 'z' and 'w'")
        z = entry["z"]
        if not isinstance(z, list) or len(z) != dim or not all(map(_is_number, z)):
            raise SchemaError(f"atom {idx}: 'z' must be a list of {dim} JSON numbers")
        if not _is_number(entry["w"]):
            raise SchemaError(f"atom {idx}: 'w' must be a JSON number, got {entry['w']!r}")
    try:
        return DiscreteMeasure(dim, [a["z"] for a in atoms], [a["w"] for a in atoms])
    except (ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


def _read_json(path: str):
    """The parsed JSON document in ``path``; malformed JSON raises SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer with more digits than int() may parse
            raise SchemaError(f"{path}: unreadable JSON: {exc}") from exc


def load_measure(path: str) -> DiscreteMeasure:
    return measure_from_dict(_read_json(path))

