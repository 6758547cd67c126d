"""Tests for discrete measures: functionals, decompositions, JSON round trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyot.bounds import RadialTestFunction, positive_part_dual_bound, restriction_bound
from levyot.families import AnnularGrid, FracLaplFamily, LevyItoFamily, _discretize_density, pushforward, split_fraclap
from levyot.measures import (
    DiscreteMeasure,
    _merge_sites,
    _signed_sites,
    SchemaError,
    decompose,
    measure_from_dict,
    measure_to_dict,
    n_p,
    restrict_outside,
    tv_distance,
    weight_by_power,
)
from levyot.suites import random_grid_function, random_measure, random_unit_measure
from levyot.transport import CostSpec, DualPotentials, solve
from levyot.viscosity import levy_op_eval


def test_measure_rejects_origin_and_merges_duplicates():
    # each error names the first bad atom by its input index
    for positions, weights, message in [
        ([[3.0, 4.0], [0.0, 0.0]], [1.0, 1.0], "atom 1: |z| = 0"),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 0.0]], [1.0] * 4, "atom 3: |z| = 0"),
        ([[1.0], [2.0]], [1.0, 0.0], "atom 1: weight must be positive and finite, got 0.0"),
        ([[1.0], [2.0], [3.0], [4.0]], [1.0, 2.0, 1.0, -1.0], "atom 3: weight must be positive and finite, got -1.0"),
        ([[1.0], [2.0]], [np.inf, 1.0], "atom 0: weight must be positive and finite, got inf"),
        ([[1.0], [2.0]], [1.0, np.nan], "atom 1: weight must be positive and finite, got nan"),
        ([[1.0, 2.0], [np.inf, 0.0]], [1.0, 1.0], "atom 1: coordinates must be finite"),
        ([[1.0], [10**400]], [1.0, 1.0], "atom 1: coordinate or weight is too large"),
        # |z| <= 2^510 keeps every squared distance finite
        ([[1.0], [1e154]], [1.0, 1.0], "atom 1: |z| = 1e+154 exceeds 2^510"),
        ([[1.0, 0.0], [1.0, 0.0], [1e160, 0.0]], [1.0] * 3, "atom 2: |z| = inf exceeds 2^510"),
        ([[3e153, 3e153]], [1.0], "atom 0: |z| = 4.24"),
        # |z| >= 2^-511 keeps |z|^2 a normal float; a smaller |z| is named, not read as 0
        ([[1.0], [1e-200]], [1.0, 1.0], "atom 1: |z| = 1e-200 is below 2^-511"),
        ([[1e-200, 0.0]], [1.0], "atom 0: |z| = 1e-200 is below 2^-511"),
        ([[1e-160]], [1.0], "atom 0: |z| = 1e-160 is below 2^-511"),
        # each weight is finite but their sum is not
        ([[1.0], [2.0]], [1e308, 1e308], "the total weight overflows the float range"),
        ([[1.0], [1.0]], [1e308, 1e308], "the total weight overflows the float range"),
    ]:
        with pytest.raises(ValueError) as info:
            DiscreteMeasure(len(positions[0]), positions, weights)
        assert str(info.value).startswith(message)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        DiscreteMeasure(0, [], [])
    with pytest.raises(ValueError, match="dim must be at most 65536"):
        DiscreteMeasure(10**18, [], [])
    assert DiscreteMeasure(2, [[3.0, 4.0]], [2.0]).radii.tolist() == [5.0]
    assert DiscreteMeasure(2, [[0.0, -(2.0**-511)]], [1.0]).radii.tolist() == [2.0**-511]
    mu = DiscreteMeasure(1, [[0.5], [0.5], [1.0]], [1.0, 2.0, 3.0])
    assert mu.n_atoms == 2
    assert mu.total_mass() == 6.0
    # a total near the top of the float range is still accepted when it is finite
    assert DiscreteMeasure(1, [[1.0], [2.0]], [1e308, 5e307]).total_mass() == 1.5e308
    # bit-exact merge only
    nu = DiscreteMeasure(1, [[0.5], [0.5 + 1e-16]], [1.0, 1.0])
    assert nu.n_atoms == 2 or 0.5 + 1e-16 == 0.5  # identical floats merge
    # 0.0 and -0.0 are different sites; sites keep their first-occurrence order
    pos = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    signed = DiscreteMeasure(2, pos, [1.0, 2.0, 3.0, 4.0])
    assert signed.weights.tolist() == [4.0, 2.0, 4.0]
    assert np.signbit(signed.positions[:, 0]).tolist() == [False, True, False]
    # the measure owns its arrays, with or without duplicates
    for src in (pos, pos[1:]):
        w = np.ones(len(src))
        mu = DiscreteMeasure(2, src, w)
        assert not np.shares_memory(mu.positions, src) and not np.shares_memory(mu.weights, w)


def _dict_merge(pos, w):
    """Reference: the bytes-keyed dict loop the constructor used to merge sites."""
    merged, keep_pos, keep_w = {}, [], []
    for k in range(pos.shape[0]):
        key = pos[k].tobytes()
        if key in merged:
            keep_w[merged[key]] += w[k]
        else:
            merged[key] = len(keep_pos)
            keep_pos.append(pos[k])
            keep_w.append(float(w[k]))
    return np.array(keep_pos, dtype=float).reshape(-1, pos.shape[1]), np.array(keep_w, dtype=float)


def _dict_net(mu, nu):
    """Reference: net weight and radius per site of mu - nu, as dict loops."""
    net, radius = {}, {}
    for m, sign in ((mu, 1.0), (nu, -1.0)):
        for k in range(m.n_atoms):
            key = m.positions[k].tobytes()
            net[key] = net.get(key, 0.0) + sign * float(m.weights[k])
            radius[key] = float(m.radii[k])
    return net, radius


def _repeating_sites(rng, n, dim):
    """Coordinates from a small pool, so rows repeat and 0.0 meets -0.0; weights 1e-2 to 1e11."""
    pool = np.array([0.0, -0.0, 0.25, -0.25, 1e-7, 3.0])
    pos = rng.choice(pool, size=(n, dim))
    pos = pos[np.any(pos != 0.0, axis=1)]
    return pos, 10.0 ** rng.uniform(-2.0, 11.0, size=pos.shape[0])


def test_site_merge_matches_dict_reference():
    rng = np.random.default_rng(605)
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        pos, w = _repeating_sites(rng, int(rng.integers(0, 60)), dim)
        mu = DiscreteMeasure(dim, pos, w)
        ref_pos, ref_w = _dict_merge(pos, w)
        assert mu.positions.tobytes() == ref_pos.tobytes()
        assert mu.weights.tobytes() == ref_w.tobytes()

        nu = DiscreteMeasure(dim, *_repeating_sites(rng, int(rng.integers(0, 60)), dim))
        net, _ = _dict_net(mu, nu)
        assert tv_distance(mu, nu) == math.fsum(abs(v) for v in net.values())

        # an ordered pair (nu below mu site by site) and the signed pair above
        keep = rng.random(mu.n_atoms) < 0.6
        below = DiscreteMeasure(dim, mu.positions[keep], mu.weights[keep] * rng.uniform(0.1, 1.0, keep.sum()))
        for other in (below, nu):
            p = float(rng.choice([1.0, 1.5, 2.0]))
            net, radius = _dict_net(mu, other)
            if any(v < -1e-15 for v in net.values()):
                with pytest.raises(ValueError, match="signed"):
                    positive_part_dual_bound(mu, other, p)
            else:
                expected = math.fsum(v * radius[k] ** p for k, v in net.items())
                assert positive_part_dual_bound(mu, other, p) == expected


# Coordinates from a small set, so that rows repeat and 0.0 meets -0.0.
_COORD = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1e-7, 3.0, -1e150])


@st.composite
def _repeated_rows(draw, max_dim, sides):
    """(dim, [(positions, weights)] * sides): rows drawn with repeats from a few shared sites."""
    dim = draw(st.integers(1, max_dim))
    sites = draw(st.lists(st.tuples(*[_COORD] * dim).filter(any), min_size=1, max_size=6, unique=True))
    drawn = []
    for _ in range(sides):
        picks = draw(st.lists(st.integers(0, len(sites) - 1), max_size=30))
        w = draw(st.lists(st.floats(1e-3, 1e12), min_size=len(picks), max_size=len(picks)))
        drawn.append((np.array([sites[k] for k in picks], dtype=float).reshape(-1, dim), np.array(w, dtype=float)))
    return dim, drawn


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_repeated_rows(max_dim=3, sides=2))
def test_property_site_merge_matches_the_dict_reference(case):
    # sums in input order and sites in order of first occurrence, bit for bit
    dim, ((pos, w), (other_pos, other_w)) = case
    index, total = _merge_sites(pos, w)
    ref_pos, ref_w = _dict_merge(pos, w)
    assert pos[index].tobytes() == ref_pos.tobytes() and total.tobytes() == ref_w.tobytes()
    mu, nu = DiscreteMeasure(dim, pos, w), DiscreteMeasure(dim, other_pos, other_w)
    index, net = _signed_sites(mu, nu)
    ref_net, _ = _dict_net(mu, nu)
    sites = np.concatenate([mu.positions, nu.positions])[index]
    assert [row.tobytes() for row in sites] == list(ref_net)
    assert net.tobytes() == np.array(list(ref_net.values()), dtype=float).reshape(-1).tobytes()
    assert tv_distance(mu, nu) == math.fsum(abs(v) for v in ref_net.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_repeated_rows(max_dim=9, sides=1), st.data())
def test_property_restrict_with_new_weights_matches_the_constructor(case, data):
    dim, ((pos, w),) = case
    mu = DiscreteMeasure(dim, pos, w)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=mu.n_atoms, max_size=mu.n_atoms)), dtype=bool)
    kept = int(mask.sum())
    new = np.array(data.draw(st.lists(st.floats(1e-300, 1e300), min_size=kept, max_size=kept)), dtype=float)
    _assert_built_from_rows(mu._restrict(mask, new), dim, mu.positions[mask], new)
    _assert_built_from_rows(mu._restrict(weights=mu.weights * 0.5), dim, mu.positions, mu.weights * 0.5)
    # a weight that underflows to 0, and a total beyond the float range,
    # raise the constructor's own message
    bad = [new * 1e-300 * 1e-300 * 1e-300]
    if kept > 1:
        bad.append(np.full(kept, 1e308))
    for weights in bad if kept else []:
        with pytest.raises(ValueError) as want:
            DiscreteMeasure(dim, mu.positions[mask], weights)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            mu._restrict(mask, weights)


def test_measure_is_immutable():
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    with pytest.raises(AttributeError):
        mu.dim = 3
    with pytest.raises(ValueError):
        mu.weights[0] = 2.0


def test_n_p_examples():
    assert n_p(DiscreteMeasure.empty(2), 2.0) == 0.0
    single = DiscreteMeasure(1, [[2.0]], [3.0])
    assert n_p(single, 1.0) == 3.0  # capped at one
    two = DiscreteMeasure(1, [[0.5], [3.0]], [2.0, 1.0])
    assert n_p(two, 2.0) == pytest.approx(1.5, abs=0)


def test_n_p_monotonicity(rng, make_measure):
    for _ in range(50):
        mu = make_measure(rng, int(rng.integers(1, 4)), max_atoms=20, inner=0.05, outer=0.95)
        # inside the unit ball the capped mass decreases as p grows
        assert n_p(mu, 1.0) >= n_p(mu, 1.5) >= n_p(mu, 2.0)
        if mu.n_atoms:
            heavier = DiscreteMeasure(mu.dim, mu.positions, mu.weights * 2.0)
            assert n_p(heavier, 1.5) >= n_p(mu, 1.5)


def test_decompose_boundary_convention():
    mu = DiscreteMeasure(1, [[0.5], [1.0], [2.0]], [1.0, 1.0, 1.0])
    dec = decompose(mu)
    assert dec.hat.n_atoms == 1 and dec.hat.radii[0] == 0.5
    assert dec.check.n_atoms == 2  # |z| = 1 goes with the far part
    inside = DiscreteMeasure(2, [[0.2, 0.1], [0.0, -0.5]], [1.0, 1.0])
    assert decompose(inside).check.n_atoms == 0
    empty = decompose(DiscreteMeasure.empty(3))
    assert empty.hat.n_atoms == 0 and empty.check.n_atoms == 0


def test_decompose_recombines_exactly(rng, make_measure):
    for _ in range(20):
        mu = make_measure(rng, 2, max_atoms=30)
        dec = decompose(mu)
        combined = DiscreteMeasure(
            mu.dim,
            np.concatenate([dec.hat.positions, dec.check.positions]),
            np.concatenate([dec.hat.weights, dec.check.weights]),
        )
        assert tv_distance(combined, mu) == 0.0


def test_restrict_outside():
    mu = DiscreteMeasure(1, [[0.1], [0.5]], [1.0, 1.0])
    kept = restrict_outside(mu, 0.3)
    assert kept.n_atoms == 1 and kept.radii[0] == 0.5
    assert restrict_outside(mu, 10.0).n_atoms == 0
    assert tv_distance(restrict_outside(mu, 0.01), mu) == 0.0
    with pytest.raises(ValueError):
        restrict_outside(mu, 0.0)


def test_restrict_outside_nested(rng, make_measure):
    mu = make_measure(rng, 2, max_atoms=30, allow_empty=False)
    big = restrict_outside(mu, 0.2)
    small = restrict_outside(mu, 0.8)
    # every atom surviving the tighter cut also survives the looser one
    kept = {small.positions[k].tobytes() for k in range(small.n_atoms)}
    pool = {big.positions[k].tobytes() for k in range(big.n_atoms)}
    assert kept <= pool


def _assert_built_from_rows(part, dim, positions, weights):
    """``part`` equals the constructor's measure on these rows, bit for bit, and is read-only."""
    ref = DiscreteMeasure(dim, positions, weights)
    assert part.dim == dim
    for got, want in ((part.positions, ref.positions), (part.weights, ref.weights), (part.radii, ref.radii)):
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    with pytest.raises(AttributeError):
        part.weights = ref.weights


def test_sub_measures_equal_constructor_built_parts(rng, make_measure):
    for dim in (1, 2, 3):
        for _ in range(10):
            mu = make_measure(rng, dim, max_atoms=40)
            dec = decompose(mu)
            inside = mu.radii < 1.0
            _assert_built_from_rows(dec.hat, dim, mu.positions[inside], mu.weights[inside])
            _assert_built_from_rows(dec.check, dim, mu.positions[~inside], mu.weights[~inside])
            r = float(rng.uniform(0.05, 2.5))
            keep = mu.radii >= r
            _assert_built_from_rows(restrict_outside(mu, r), dim, mu.positions[keep], mu.weights[keep])
    # an empty mask gives the zero measure
    mu = make_measure(rng, 2, max_atoms=10, allow_empty=False)
    for part in (restrict_outside(mu, 1e300), decompose(restrict_outside(mu, 1.0)).hat):
        assert part.n_atoms == 0 and part.total_mass() == 0.0 and part == DiscreteMeasure.empty(2)
        _assert_built_from_rows(part, 2, np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_split_fraclap_parts_equal_constructor_built_parts(dim):
    fam = FracLaplFamily(a=lambda x: (0.5 + 0.25 * math.sin(x[0])) ** 1.5, sigma=1.5, dim=dim)
    for grid in (AnnularGrid(r_min=1e-3, r_max=2.0, n_radial=40, n_angular=6), AnnularGrid(n_radial=30)):
        for x in (0.0, 1.3, -0.7):
            x = [x] * dim
            rx = fam.split_radius(x)
            pos, w, lefts = _discretize_density(fam.density_at(x), dim, grid, extra_breaks=(rx, 1.0))
            masks = (lefts < min(rx, 1.0), (lefts >= rx) & (lefts < 1.0), lefts >= 1.0)
            for part, mask in zip(split_fraclap(fam, x, grid), masks):
                _assert_built_from_rows(part, dim, pos[mask], w[mask])
    # with r_max = 1 the far part is the zero measure
    assert split_fraclap(fam, [0.0] * dim, AnnularGrid(n_radial=30))[2] == DiscreteMeasure.empty(dim)


def test_split_fraclap_merges_shared_centroids_only_within_a_part(monkeypatch):
    # Two cells whose centroids round to one site but lie on either side of
    # the split radius stay in their own parts, as separate atoms.
    rx = 0.5 ** (1.0 / 1.5)
    pos = np.array([[0.1], [0.6], [0.6], [0.6], [1.5]])
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    lefts = np.array([0.05, rx / 2, rx / 2, rx, 1.0])
    monkeypatch.setattr("levyot.families._discretize_density", lambda *args, **kwargs: (pos, w, lefts))
    fam = FracLaplFamily(a=lambda x: 0.5, sigma=1.5, dim=1)
    hat, tilde, check = split_fraclap(fam, [0.0], AnnularGrid())
    _assert_built_from_rows(hat, 1, [[0.1], [0.6]], [1.0, 5.0])
    _assert_built_from_rows(tilde, 1, [[0.6]], [4.0])
    _assert_built_from_rows(check, 1, [[1.5]], [5.0])


def test_tv_distance_examples():
    mu = DiscreteMeasure(1, [[0.5]], [1.0])
    assert tv_distance(mu, mu) == 0.0
    nu = DiscreteMeasure(1, [[0.7]], [2.0])
    assert tv_distance(mu, nu) == 3.0
    nu2 = DiscreteMeasure(1, [[0.5]], [2.0])
    assert tv_distance(mu, nu2) == 1.0
    with pytest.raises(ValueError):
        tv_distance(mu, DiscreteMeasure(2, [[0.5, 0.0]], [1.0]))


def test_tv_distance_metric_axioms(rng, make_measure):
    for _ in range(30):
        a = make_measure(rng, 1, max_atoms=8)
        b = make_measure(rng, 1, max_atoms=8)
        c = make_measure(rng, 1, max_atoms=8)
        assert tv_distance(a, b) == tv_distance(b, a)
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_weight_by_power():
    assert weight_by_power(DiscreteMeasure.empty(1), 2.0).n_atoms == 0
    unit = DiscreteMeasure(1, [[1.0]], [2.0])
    assert weight_by_power(unit, 2.0).weights[0] == 2.0
    half = DiscreteMeasure(1, [[0.5]], [4.0])
    assert weight_by_power(half, 2.0).weights[0] == 1.0


def test_json_round_trip(rng, make_measure):
    mu = make_measure(rng, 3, max_atoms=10, allow_empty=False)
    doc = measure_to_dict(mu)
    back = measure_from_dict(json.loads(json.dumps(doc)))
    assert tv_distance(mu, back) == 0.0


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        measure_from_dict({"atoms": []})
    with pytest.raises(SchemaError):
        measure_from_dict({"dim": 1, "atoms": [{"z": [0.0], "w": 1.0}]})
    with pytest.raises(SchemaError):
        measure_from_dict({"dim": 1, "atoms": [{"z": [0.5], "w": 0.0}]})
    with pytest.raises(SchemaError):
        measure_from_dict({"dim": 2, "atoms": [{"z": [0.5], "w": 1.0}]})
    with pytest.raises(SchemaError):
        measure_from_dict({"dim": 1, "atoms": [{"z": [0.5]}]})
    for doc in MALFORMED_MEASURES.values():
        with pytest.raises(SchemaError):
            measure_from_dict(doc)
    with pytest.raises(SchemaError, match="atom 1: weight must be positive and finite, got -1.0"):
        measure_from_dict({"dim": 1, "atoms": [{"z": [0.5], "w": 1}, {"z": [0.7], "w": -1}]})
    # "atoms": [] is the zero measure; integer coordinates and weights are JSON numbers
    assert measure_from_dict({"dim": 3, "atoms": []}).n_atoms == 0
    assert measure_from_dict({"dim": 1, "atoms": [{"z": [2], "w": 3}]}).p_moment(1.0) == 6.0


# Documents that must be rejected as malformed input, each for one rule.
MALFORMED_MEASURES = {
    "dim-zero": {"dim": 0, "atoms": []},
    "dim-negative": {"dim": -1, "atoms": []},
    "dim-bool": {"dim": True, "atoms": [{"z": [0.5], "w": 1.0}]},
    "dim-float": {"dim": 2.7, "atoms": [{"z": [0.5, 0.1], "w": 1.0}]},
    "dim-string": {"dim": "1", "atoms": []},
    "coordinate-string": {"dim": 1, "atoms": [{"z": ["1.5"], "w": 1.0}]},
    "weight-bool": {"dim": 1, "atoms": [{"z": [1.5], "w": True}]},
    "coordinate-huge": {"dim": 1, "atoms": [{"z": [10**400], "w": 1.0}]},
    "weight-huge": {"dim": 2, "atoms": [{"z": [0.5, 0.5], "w": 1.0}, {"z": [0.1, 0.0], "w": 10**400}]},
    "dim-huge": {"dim": 10**18, "atoms": []},
    "radius-huge": {"dim": 1, "atoms": [{"z": [1e154], "w": 1.0}]},
    # every weight is finite, their total is not
    "mass-huge-d1": {"dim": 1, "atoms": [{"z": [1.0], "w": 1e308}, {"z": [2.0], "w": 1e308}]},
    "mass-huge-d2": {"dim": 2, "atoms": [{"z": [1.0, 0.0], "w": 1e308}, {"z": [2.0, 0.0], "w": 1e308}]},
    # beyond the 4300 digits int() parses by default, so json.load itself fails
    "coordinate-5000-digits": {"dim": 1, "atoms": [{"z": [10**5000 - 1], "w": 1.0}]},
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_atom_measure_takes_the_general_path(dim):
    empty = DiscreteMeasure.empty(dim)
    assert empty.p_moment(1.5) == 0.0 and empty.max_radius() == 0.0
    u = random_grid_function(np.random.default_rng(dim), dim, 6)
    assert levy_op_eval(u, np.full(dim, 0.1), empty, np.ones(dim)) == 0.0
    assert RadialTestFunction.hat(0.2, 0.8).integral(empty) == 0.0
    far = DiscreteMeasure(dim, np.eye(dim) * 0.6, np.ones(dim))
    assert restriction_bound(empty, 0.5, 2.0) == 0.0
    assert restriction_bound(far, 0.5, 2.0) == 0.0

    for mu, nu in ((far, empty), (empty, far), (empty, empty)):
        duals = solve(mu, nu, CostSpec(1.5)).duals
        assert duals.violations(mu, nu) == []
        pinned = DualPotentials(phi=np.zeros(mu.n_atoms), psi=np.zeros(nu.n_atoms), p=1.5)
        assert pinned.violations(mu, nu) == []

    # far out every cell mass underflows to zero (while |z|^2 and |z|^d stay
    # finite), so the discretization has no atoms and all three pieces are empty
    r_min = 1e140 if dim == 1 else 1e100
    grid = AnnularGrid(r_min=r_min, r_max=2.0 * r_min, n_radial=4, n_angular=3)
    family = FracLaplFamily(a=lambda x: 0.5, sigma=1.5, dim=dim)
    assert family.split_radius([0.0]) < r_min
    for piece in split_fraclap(family, [0.0], grid):
        assert piece.dim == dim and piece.n_atoms == 0

    collapse = LevyItoFamily(
        base=far,
        maps=lambda x: (lambda Z: np.zeros_like(np.atleast_2d(Z))),
        dim_out=dim,
    )
    image = pushforward(collapse, np.zeros(dim))
    assert image.dim == dim and image.n_atoms == 0

    # an n = 0 draw consumes only the count from the random stream
    for draw in (random_measure, random_unit_measure):
        rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
        assert draw(rng, dim, max_atoms=0).n_atoms == 0
        ref.integers(0, 1)
        assert rng.random(4).tolist() == ref.random(4).tolist()
