"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import math
import os
import sys

import pytest

from levyot.cli import main
from levyot.measures import _is_number

from test_families import SWEEP_HEAVY, SWEEP_KERNEL
from test_measures import MALFORMED_MEASURES


@pytest.fixture
def measure_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"dim": 1, "atoms": [{"z": [0.3], "w": 1.0}]}))
    b.write_text(json.dumps({"dim": 1, "atoms": [{"z": [0.4], "w": 1.0}]}))
    return str(a), str(b)


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects malformed options itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_basic(measure_files, capsys):
    a, b = measure_files
    code, out, _ = run_cli(["dist", a, b, "--p", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == pytest.approx(0.1)
    assert doc["value"] == pytest.approx(0.1)
    assert doc["gap"] <= 1e-9
    assert "plan" in doc and "duals" in doc


def test_dist_in_one_dimension_takes_no_simplex(tmp_path, monkeypatch, capsys):
    # 20,000 atoms a side: the monotone coupling solves it exactly, without
    # pivots and without building the simplex
    import numpy as np

    import levyot.transport as tr

    def no_simplex(*args):
        raise AssertionError("d = 1 built the simplex")

    monkeypatch.setattr(tr._Simplex, "__init__", no_simplex)
    rng = np.random.default_rng(20000)
    files = []
    for name in ("mu", "nu"):
        z = rng.uniform(0.01, 2.0, 20000) * rng.choice([-1.0, 1.0], 20000)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": 1, "atoms": [{"z": [float(c)], "w": float(w)}
                                                        for c, w in zip(z, rng.uniform(0.1, 3.0, 20000))]}))
        files.append(str(path))
    code, out, _ = run_cli(["dist", *files, "--p", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == 0 and doc["gap"] <= 1e-9 * (1.0 + doc["value"])
    assert len(doc["duals"]["phi"]) == len(doc["duals"]["psi"]) == 20000


# SHA-256 of `levyot dist --out` on _cloud_pair's files, from commit 0a9ac84,
# which kept the simplex's spanning tree in NumPy arrays.
DIST_SHA256 = {
    "1": "bf6863c176b9e136ee29f2abf970d389a7d564356ca1106cf5217d83b13d9e97",
    "2": "10a96caae0149b31c926fd2e84c042f24831cc4a59756a8461a06d5a13d7a625",
}


def _cloud_pair(tmp_path):
    """Seeded d = 3 clouds of 260 atoms a side, 20 of them shared: 67,600 atom
    pairs, above the k-NN threshold of 65,536."""
    import numpy as np

    rng = np.random.default_rng(260)
    x, y = rng.normal(size=(260, 3)), rng.normal(size=(260, 3))
    y[:20] = x[:20]
    files = []
    for name, z in (("mu", x), ("nu", y)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": 3, "atoms": [{"z": [float(c) for c in zz], "w": float(w)}
                                                        for zz, w in zip(z, rng.uniform(0.2, 2.0, 260))]}))
        files.append(str(path))
    return files


@pytest.mark.parametrize("p", ["1", "2"])
def test_dist_above_the_knn_threshold_matches_golden_bytes(p, tmp_path, capsys):
    import hashlib

    out = tmp_path / "dist.json"
    code, stdout, _ = run_cli(["dist", *_cloud_pair(tmp_path), "--p", p, "--out", str(out)], capsys)
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["iterations"] > 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIST_SHA256[p]


def test_dist_identical_files(measure_files, capsys):
    a, _ = measure_files
    code, out, _ = run_cli(["dist", a, a, "--p", "2"], capsys)
    assert code == 0
    assert json.loads(out)["distance"] == 0.0


def test_dist_malformed_json(tmp_path, measure_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "atoms": [')
    code, _, err = run_cli(["dist", str(bad), measure_files[1], "--p", "1"], capsys)
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "doc",
    [{"dim": 1, "atoms": [{"z": [0.0], "w": 1.0}]}, *MALFORMED_MEASURES.values()],
    ids=["origin", *MALFORMED_MEASURES],
)
def test_dist_schema_violation(doc, tmp_path, measure_files, capsys):
    bad = tmp_path / "bad.json"
    # writing a 5000-digit integer needs the int-to-str digit limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        bad.write_text(json.dumps(doc))
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = run_cli(["dist", str(bad), measure_files[1], "--p", "1"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.fixture
def grid_file(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lo": [0.0], "hi": [1.0], "values": [0.0, 1.0, 0.0]}))
    return str(grid)


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "{missing}", "{a}"],
        ["dual", "{a}", "{missing}"],
        ["bounds", "{missing}", "{a}"],
        ["convolve", "{missing}", "--delta", "0.1"],
        ["doubling", "{grid}", "{missing}", "--epsilon", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unreadable_input_file(argv, tmp_path, measure_files, grid_file, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for bad in (tmp_path / "missing.json", binary):
        names = {"missing": str(bad), "a": measure_files[0], "grid": grid_file}
        code, _, err = run_cli([tok.format(**names) for tok in argv], capsys)
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "doc",
    [[0.0, 1.0], {"lo": [0.0], "values": [0.0, 1.0]}, {"lo": [0.0], "hi": [1.0], "values": [[0.0], [1.0, 2.0]]}],
    ids=["list", "missing-hi", "ragged"],
)
def test_convolve_malformed_grid(doc, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    code, out, err = run_cli(["convolve", str(grid), "--delta", "0.1"], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: {grid}: invalid grid function document")


def _write_measure(path, dim, atoms):
    path.write_text(json.dumps({"dim": dim, "atoms": [{"z": z, "w": w} for z, w in atoms]}))
    return str(path)


@pytest.mark.parametrize("command", ["dist", "bounds"])
def test_dimension_mismatch_is_solver_failure(command, tmp_path, measure_files, capsys):
    planar = _write_measure(tmp_path / "planar.json", 2, [([0.3, 0.1], 1.0)])
    code, out, err = run_cli([command, measure_files[0], planar], capsys)
    assert code == 3
    assert out == "" and err.startswith("solver failure:")


@pytest.mark.parametrize(
    "mu_atoms, nu_atoms, p",
    [
        ([([1e160, 0.0], 1.0), ([0.0, 3.0], 1.0)], [([-1e160, 1.0], 2.0)], "2"),
        ([([1e160, 0.0], 1.0), ([0.0, 3.0], 1.0)], [], "2"),
        ([([1e154], 1.0)], [([-1e154], 1.0)], "1.5"),
    ],
    ids=["pair", "empty-side", "1e154-p1.5"],
)
def test_dist_overflow_is_schema_error(mu_atoms, nu_atoms, p, tmp_path, capsys):
    # coordinates whose squared distances overflow are rejected when the file is read
    big = _write_measure(tmp_path / "big.json", len(mu_atoms[0][0]), mu_atoms)
    other = _write_measure(tmp_path / "other.json", len(mu_atoms[0][0]), nu_atoms)
    code, out, err = run_cli(["dist", big, other, "--p", p], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: atom 0: |z| = ") and "exceeds 2^510" in err


@pytest.mark.parametrize("command", ["dist", "dual"])
@pytest.mark.parametrize("dim", [1, 2])
def test_cost_overflow_is_solver_failure(command, dim, tmp_path, capsys):
    # every atom is in range, but 1e10 * (1e150)^2 is beyond the float range:
    # no inf/nan report, which would not be valid JSON
    far = _write_measure(tmp_path / "far.json", dim, [([1e150] + [0.0] * (dim - 1), 1e10)])
    near = _write_measure(tmp_path / "near.json", dim, [([1.0] + [0.0] * (dim - 1), 1.0)])
    code, out, err = run_cli([command, far, near, "--p", "2"], capsys)
    assert code == 3
    assert out == "" and err.startswith("solver failure: the transport cost overflows the float range")


def test_sweep_refuses_a_combined_mass_beyond_the_float_range(tmp_path, capsys):
    # each hat part's mass is finite, but the two add up past the float
    # range: one solver failure that names both totals, with no NumPy warning
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "kernel", "dim": 1, "params": {"base": 1e306, "amplitude": 0},
                               "grid": {"n_radial": 10}}))
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--p", "2", "--pairs", "1", "--seed", "7"], capsys)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure: the total masses ")
    assert "nan" not in err and "sum beyond the float range" in err


def test_dual_reports_strong_duality(measure_files, capsys):
    a, b = measure_files
    code, out, _ = run_cli(["dual", a, b, "--p", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dual_value"] == pytest.approx(doc["primal_value"], abs=1e-12)


def test_bounds_csv(measure_files, capsys):
    a, b = measure_files
    code, out, _ = run_cli(["bounds", a, b, "--p", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bound_name,lhs,rhs,slack,pass"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[-1] == "true" for r in rows)
    names = {r[0] for r in rows}
    assert "tv_power" in names and "restriction" in names


def test_bounds_solves_the_pair_once(measure_files, monkeypatch, capsys):
    # restricted_integral_bound takes the distance that cmd_bounds solved
    # for: on unit-ball input the pair is solved once, the restriction once
    import levyot.transport as tr
    from levyot.measures import load_measure

    calls = []
    solve = tr.solve
    monkeypatch.setattr(tr, "solve", lambda mu, nu, cost: calls.append((mu, nu)) or solve(mu, nu, cost))
    a, b = measure_files
    code, out, _ = run_cli(["bounds", a, b, "--p", "1.5"], capsys)
    assert code == 0 and "restricted_integral" in out
    pair = (load_measure(a), load_measure(b))
    assert len(calls) == 2 and sum(call == pair for call in calls) == 1


@pytest.mark.parametrize(
    "argv",
    [["--center", "-5e-1"], ["--center", "-.5"], ["--center=-5e-1"], ["--center", "-5E-1"]],
    ids=["exponent", "leading-point", "equals", "capital-e"],
)
def test_negative_numbers_parse_in_every_form(argv, capsys):
    from levyot.cli import build_parser

    args = build_parser().parse_args(["experiment", *argv, "--shift", "-1e-1"])
    assert (args.center, args.shift) == (-0.5, -0.1)
    code, out, err = run_cli(["experiment", "--nodes", "8", "--epsilons", "0.1", *argv], capsys)
    assert code == 0 and err == "" and json.loads(out)["rows"]


def test_negative_exponent_forms_reach_every_subcommand(measure_files, capsys):
    # the parser class carries the pattern, so a subcommand's own range check
    # answers, not argparse's "expected one argument"
    a, b = measure_files
    for argv, name in ((["dist", a, b, "--p", "-1e0"], "--p"), (["sweep", "--config", a, "--pairs", "-1e0"], "--pairs"),
                       (["convolve", a, "--delta", "-1e-2"], "--delta")):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert f"argument {name}: " in err and "expected one argument" not in err


def test_sweep_deterministic(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(
        json.dumps(
            {
                "type": "kernel",
                "dim": 1,
                "sigma": 0.5,
                "params": {"base": 1.0, "amplitude": 0.5},
                "grid": {"r_min": 0.01, "n_radial": 30},
            }
        )
    )
    code1, out1, err1 = run_cli(
        ["sweep", "--config", str(cfg), "--pairs", "4", "--seed", "7"], capsys
    )
    code2, out2, err2 = run_cli(
        ["sweep", "--config", str(cfg), "--pairs", "4", "--seed", "7"], capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert "max_ratio=" in err1
    header = out1.splitlines()
    assert header[0].startswith("# seed=7")
    assert header[1] == "x,y,separation,distance,ratio,truncation_cost"
    assert len(header) == 2 + 4


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_SWEEPS = [("kernel_p1", SWEEP_KERNEL, 7, 6, "1"), ("kernel_p2", SWEEP_KERNEL, 7, 6, "2"),
                 ("heavy_p2", SWEEP_HEAVY, 2018, 3, "2")]


@pytest.mark.parametrize("name, config, seed, pairs, p", GOLDEN_SWEEPS)
def test_sweep_json_matches_golden_bytes(name, config, seed, pairs, p, tmp_path, capsys):
    # The golden files are `levyot sweep --json` output.  A regenerated file
    # must still pass test_sweep_goldens_are_certified_from_the_config, which
    # checks every row from the family config alone.  Heavy p = 1 is left
    # out: p <= sigma there, so its truncation cost is not a cost (README).
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(config))
    rows = tmp_path / "rows.json"
    argv = ["sweep", "--config", str(cfg), "--p", p, "--s", "1", "--pairs", str(pairs), "--seed", str(seed), "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    with open(os.path.join(GOLDEN, f"sweep_{name}.json"), "rb") as fh:
        golden = fh.read()
    assert out.encode("utf-8") == golden
    assert run_cli(argv + ["--out", str(rows)], capsys)[1] == ""
    assert rows.read_bytes() == golden


@pytest.mark.parametrize("name, config, seed, pairs, p", GOLDEN_SWEEPS)
def test_sweep_goldens_are_certified_from_the_config(name, config, seed, pairs, p):
    # The hat parts at x and at y are one unit measure times two coefficients,
    # on the same sites, so mu - nu has one sign.  At p = 1 keeping the shared
    # mass in place is then optimal, and its cost sum_i |w_x,i - w_y,i| |z_i|
    # is summed exactly.  At p = 2 the radial lower bound R is the optimum, up
    # to the ray path's certificate tolerance RAY_CERT_TOL * G.
    from fractions import Fraction

    import numpy as np

    from levyot.bounds import radial_lower_bound
    from levyot.families import build_family
    from levyot.measures import _pow, decompose
    from levyot.transport import RAY_CERT_TOL, CostSpec, solve

    with open(os.path.join(GOLDEN, f"sweep_{name}.json")) as fh:
        rows = json.load(fh)["rows"]
    assert len(rows) == pairs
    runtime, q = build_family(config), float(p)
    for row in rows:
        mu, nu = (decompose(runtime.make_measure(z)).hat for z in (row["x"], row["y"]))
        assert np.array_equal(mu.positions, nu.positions)
        if q == 1.0:
            exact = float(sum(abs(Fraction(a) - Fraction(b)) * Fraction(r)
                              for a, b, r in zip(mu.weights.tolist(), nu.weights.tolist(), mu.radii.tolist())))
            assert abs(row["distance"] - exact) <= 2 * math.ulp(exact)
        else:
            plan = solve(mu, nu, CostSpec(q)).plan
            # G: the plan's mass times (|x| + |y|)^p, the reservoir at radius 0
            gross = math.fsum((plan.direct_vals * _pow(mu.radii[plan.direct_rows] + nu.radii[plan.direct_cols], q)).tolist()
                              + (plan.to_reservoir * _pow(mu.radii, q)).tolist()
                              + (plan.from_reservoir * _pow(nu.radii, q)).tolist())
            assert abs(row["distance"] ** q - radial_lower_bound(mu, nu, q)) <= RAY_CERT_TOL * gross


@pytest.mark.parametrize(
    "config, certified",
    [(SWEEP_KERNEL, 4),
     ({"type": "levyito", "dim": 2, "sigma": 0.5, "params": {"kind": "translation", "shift": 0.1},
       "grid": {"n_radial": 20, "n_angular": 6}}, 0),
     # every atom outside the unit ball: both hats are empty, and the ray path certifies the empty plan
     ({"type": "constant", "dim": 2, "grid": {"r_min": 1.5, "r_max": 3.0}}, 4)],
    ids=["kernel", "levyito-translation", "empty-hats"],
)
def test_sweep_reports_its_certified_rows(config, certified, tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--pairs", "4", "--p", "2"], capsys)
    assert code == 0
    assert err.endswith(f" certified={certified}/4\n") and err.startswith("max_ratio=")


@pytest.mark.parametrize("p", ["1", "2"])
@pytest.mark.parametrize("config, seed", [(SWEEP_HEAVY, 2018), (SWEEP_KERNEL, 7)], ids=["heavy", "kernel"])
def test_dist_and_dual_agree_with_sweep(config, seed, p, tmp_path, capsys):
    # The hat parts of the sweep's own measures, written to files: dist and
    # dual take the certified ray path that the sweep rows come from.
    import warnings

    import numpy as np
    from scipy.integrate import IntegrationWarning

    from levyot.families import build_family, sweep_pairs
    from levyot.measures import decompose, measure_to_dict
    from levyot.transport import RAY_CERT_TOL, DualPotentials, dual_value

    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        # heavy p = 1 has p <= sigma, where the truncation quadrature diverges
        # (ROADMAP 6(a)); only the distances are compared here
        warnings.simplefilter("ignore", IntegrationWarning)
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--p", p, "--pairs", "3", "--seed", str(seed), "--json"],
                               capsys)
    assert code == 0
    runtime, q = build_family(config), float(p)
    for row, (x, y) in zip(json.loads(out)["rows"], sweep_pairs(3, 2, seed)):
        mu, nu = (decompose(runtime.make_measure(z)).hat for z in (x, y))
        files = [str(tmp_path / "mu.json"), str(tmp_path / "nu.json")]
        for path, hat in zip(files, (mu, nu)):
            with open(path, "w") as fh:
                json.dump(measure_to_dict(hat), fh)
        code, out, _ = run_cli(["dist", *files, "--p", p], capsys)
        assert code == 0
        doc = json.loads(out)
        plan = doc["plan"]
        # G: the plan's gross cost, mass * (|x| + |y|)^p summed over its arcs
        gross = math.fsum([v * (mu.radii[i] + nu.radii[j]) ** q for i, j, v in plan["direct"]]
                          + (np.array(plan["to_reservoir"]) * mu.radii**q).tolist()
                          + (np.array(plan["from_reservoir"]) * nu.radii**q).tolist())
        assert abs(doc["value"] - row["distance"] ** q) <= RAY_CERT_TOL * gross
        code, out, _ = run_cli(["dual", *files, "--p", p], capsys)
        assert code == 0
        duals = json.loads(out)
        value = dual_value(DualPotentials(np.array(duals["phi"]), np.array(duals["psi"]), q), mu, nu)
        assert abs(value - row["distance"] ** q) <= RAY_CERT_TOL * gross


def test_sweep_zero_pairs(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "constant", "dim": 1, "grid": {"r_min": 0.05, "n_radial": 10}}))
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--pairs", "0"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # comment + header only


def test_sweep_separation_power_underflow_is_solver_failure(tmp_path, capsys):
    # s is a valid option, but 0.001^1e6 underflows to 0 on the first pair
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "constant", "dim": 1, "grid": {"r_min": 0.05, "n_radial": 10}}))
    code, out, err = run_cli(["sweep", "--config", str(cfg), "--pairs", "2", "--s", "1e6"], capsys)
    assert code == 3
    assert out == "" and err.startswith("solver failure: |x - y|^s") and err.count("\n") == 1


def test_sweep_infinite_truncation_cost_is_solver_failure(tmp_path, capsys):
    # kernel sigma = 100 at p = 2: r^{p-1-sigma} overflows on (0, r_min), so the
    # truncation cost is inf, which JSON cannot carry
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "kernel", "dim": 1, "sigma": 100, "params": {"base": 1.0, "amplitude": 0.5},
                               "grid": {"r_min": 0.001, "n_radial": 10}}))
    rows = tmp_path / "rows.json"
    code, out, err = run_cli(
        ["sweep", "--config", str(cfg), "--pairs", "2", "--p", "2", "--json", "--out", str(rows)], capsys
    )
    assert code == 3
    assert out == "" and err.startswith("solver failure: truncation cost") and err.count("\n") == 1
    assert "is inf, not finite" in err and not rows.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"type": "unknown-kind"},
        {"type": "kernel", "grid": {"bogus": 1}},
        {"type": "kernel", "params": []},
        {"type": "kernel", "grid": {"n_radial": "x"}},
        {"type": "fraclap", "params": {"a0": 0.1, "a1": 0.5}},
        {"type": "levyito", "params": {"kind": "scaling", "a0": 0.1, "a1": 0.5}},
        {"type": "levyito", "sigma": 0.5, "params": {"kind": "scaling", "a0": 1e300, "a1": 0.5}},
        {"type": "levyito", "sigma": 1.0, "params": {"kind": "scaling", "a0": 1e200, "a1": 0.5}},
        {"type": "levyito", "sigma": 0.5, "params": {"kind": "scaling", "a0": 1e-300, "a1": 0.0}},
        {"type": "levyito", "sigma": 0.0, "base": {"dim": 1, "atoms": [{"z": [0.5], "w": 1.0}]},
         "params": {"kind": "scaling"}},
        {"type": "kernel", "sigma": 10**400},
        {"type": "constant", "dim": 10**400},
        {"type": "kernel", "dim": 1, "grid": {"n_radial": 10**400}},
        {"type": "kernel", "dim": 1, "grid": {"n_radial": 2**62}},
        {"type": "kernel", "dim": 4},
        {"type": "fraclap", "dim": 4},
        {"type": "constant", "dim": 5},
        {"type": "levyito", "dim": 4},
        {"type": "kernel", "params": {"base": 0.1, "amplitude": 0.5}},
        {"type": "kernel", "params": {"base": 0.5, "amplitude": -0.5}},
        {"type": "kernel", "sigma": 0},
        {"type": "kernel", "params": {"lambda1": -1}},
        {"type": "constant", "sigma": -1},
        {"type": "kernel", "gamma": "x"},
        {"type": "fraclap", "params": {"part": "bogus"}},
        {"type": "kernel", "dim": 2, "grid": {"n_radial": 1048576, "n_angular": 1048576}},
        {"type": "constant", "dim": 2, "grid": {"n_radial": 1, "n_angular": 8, "refine": 131073}},
        {"type": "levyito", "dim": 1, "sigma": 0.5, "params": {"kind": "scaling", "a0": 1e-150, "a1": 5e-151},
         "grid": {"r_min": 1e-3, "n_radial": 10}},
        {"type": "levyito", "dim": 2, "sigma": 1.0, "base": {"dim": 2, "atoms": [{"z": [1e-150, 0.0], "w": 1.0}]},
         "params": {"kind": "scaling", "a0": 0.5, "a1": 0.499999}},
    ],
    ids=[
        "unknown-kind", "grid-field", "params-list", "grid-count", "fraclap-range", "scaling-range",
        "scaling-overflow", "scaling-radius", "scaling-underflow", "scaling-sigma-0",
        "sigma-huge", "dim-huge", "count-huge", "count-2^62",
        "kernel-dim4", "fraclap-dim4", "constant-dim5", "levyito-dim4", "kernel-negative", "kernel-zero",
        "kernel-sigma-0", "kernel-lambda1", "constant-sigma", "kernel-gamma", "fraclap-part",
        "grid-points-2^40", "grid-points-cap", "scaling-below-2^-511", "scaling-base-below-2^-511",
    ],
)
def test_sweep_config_error(config, tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error: config error: ")


def test_sweep_levyito_with_base_has_no_grid_dimension_limit(tmp_path, capsys):
    base = {"dim": 4, "atoms": [{"z": [0.5, 0.0, 0.0, 0.0], "w": 1.0}]}
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "levyito", "dim": 4, "base": base}))
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--pairs", "2"], capsys)
    assert code == 0 and len(out.splitlines()) == 2 + 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "duality", "--n", "1", "--seed", "-1"],
        ["sweep", "--config", "{cfg}", "--pairs", "2", "--seed", "-1"],
        ["verify", "--suite", "duality", "--n", "-3"],
        ["verify", "--suite", "duality", "--n", "2.5"],
        ["sweep", "--config", "{cfg}", "--pairs", "-2"],
        ["experiment", "--nodes", "0"],
        ["experiment", "--nodes", "1"],
        ["experiment", "--epsilons", "1e-1,abc"],
        ["dist", "{a}", "{b}", "--p", "3"],
        ["dist", "{a}", "{b}", "--p", "nan"],
        ["dual", "{a}", "{b}", "--p", "0.5"],
        ["bounds", "{a}", "{b}", "--p", "2.5"],
        ["bounds", "{a}", "{b}", "--r", "5"],
        ["bounds", "{a}", "{b}", "--r", "0"],
        ["sweep", "--config", "{cfg}", "--p", "inf"],
        ["sweep", "--config", "{cfg}", "--s", "0"],
        ["sweep", "--config", "{cfg}", "--s", "nan"],
        ["sweep", "--config", "{cfg}", "--s", "inf"],
        ["convolve", "{grid}", "--delta", "0"],
        ["convolve", "{grid}", "--delta", "inf"],
        ["doubling", "{grid}", "{grid}", "--epsilon", "0"],
        ["doubling", "{grid}", "{grid}", "--epsilon", "1e-320"],
        ["doubling", "{grid}", "{grid}", "--epsilon", "0.1", "--kappa", "1"],
        ["doubling", "{grid}", "{grid}", "--epsilon", "0.1", "--p", "0"],
        ["experiment", "--epsilons", "0"],
        ["experiment", "--epsilons", "1e-1,inf"],
        ["experiment", "--lam", "0"],
        ["experiment", "--lam", "inf"],
        ["verify", "--suite", "duality", "--n", "1", "--tol", "duality_rel=nan"],
        ["verify", "--suite", "duality", "--n", "1", "--tol", "duality_rel=inf"],
        ["verify", "--suite", "duality", "--n", "1", "--tol", "duality_rel=-1e-9"],
    ],
    ids=[
        "verify-seed", "sweep-seed", "verify-n", "verify-n-float", "sweep-pairs", "nodes-0", "nodes-1", "epsilons",
        "dist-p-3", "dist-p-nan", "dual-p", "bounds-p", "bounds-r-5", "bounds-r-0", "sweep-p", "sweep-s-0",
        "sweep-s-nan", "sweep-s-inf", "delta-0", "delta-inf", "epsilon-0", "epsilon-tiny", "kappa-1", "doubling-p",
        "epsilons-0", "epsilons-inf", "lam-0", "lam-inf", "tol-nan", "tol-inf", "tol-negative",
    ],
)
def test_option_out_of_range_is_usage_error(argv, tmp_path, measure_files, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "constant", "dim": 1, "grid": {"r_min": 0.05, "n_radial": 10}}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lo": [0.0], "hi": [1.0], "values": [0.0, 1.0, 0.0]}))
    a, b = measure_files
    code, out, err = run_cli([tok.format(cfg=cfg, grid=grid, a=a, b=b) for tok in argv], capsys)
    assert code == 2
    assert out == "" and f"error: argument {argv[-2]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--center", "0", "--shift", "0"],
        ["--center", "0.1", "--shift", "-0.1"],
        ["--shift", "nan"],
        ["--center=-inf"],
        ["--center", "1e300"],
        ["--center", str(2.0**510), "--shift", "1e140"],
        ["--center", "1e-160", "--shift", "0"],
        ["--center", "1e-200", "--shift", "0"],
    ],
    ids=["origin", "touches-origin", "shift-nan", "center-inf", "center-huge", "sum-above-2^510",
         "center-1e-160", "center-1e-200"],
)
def test_experiment_translation_out_of_range_is_usage_error(argv, capsys):
    code, out, err = run_cli(["experiment", "--nodes", "8", "--epsilons", "0.1", *argv], capsys)
    assert code == 2
    assert out == "" and "error: argument --center/--shift: " in err


def test_experiment_translation_edges_are_accepted(capsys):
    for argv in (["--center", "-0.5", "--shift", "-0.1"], ["--center", str(2.0**510), "--shift", "0"],
                 [f"--center={-(2.0**-511)!r}", "--shift", "0"]):
        code, out, err = run_cli(["experiment", "--nodes", "8", "--epsilons", "0.1", *argv], capsys)
        assert code == 0 and err == "" and json.loads(out)["rows"]


def test_convolve_round_trip(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    vals = [0.0, 0.4, 1.0, 0.2, 0.0]
    grid.write_text(json.dumps({"lo": [0.0], "hi": [1.0], "values": vals}))
    code, out, _ = run_cli(["convolve", str(grid), "--delta", "0.05"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "sup"
    assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, doc["values"]))
    code, out, _ = run_cli(["convolve", str(grid), "--delta", "0.05", "--mode", "inf"], capsys)
    doc = json.loads(out)
    assert all(v2 <= v1 + 1e-14 for v1, v2 in zip(vals, doc["values"]))


def test_doubling_command(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lo": [0.0], "hi": [1.0], "values": [0.0, 1.0, 0.0, 0.0]}))
    code, out, _ = run_cli(
        ["doubling", str(grid), str(grid), "--epsilon", "1e-4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["x_star"] == doc["y_star"]


def test_doubling_command_on_different_grids(tmp_path, capsys):
    # u and v differ in box and node count; every value and node is dyadic,
    # so at p = 2 the output bytes are those of the dense scan on any platform
    u = {"lo": [-0.5, 0.25], "hi": [1.0, 1.5],
         "values": [[((3 * i + 5 * j) % 7) / 8 - 0.25 for j in range(5)] for i in range(7)]}
    v = {"lo": [0.0, -1.0], "hi": [2.0, 0.5],
         "values": [[((2 * i + 3 * j) % 5) / 4 - 0.5 for j in range(9)] for i in range(4)]}
    files = []
    for name, doc in (("u", u), ("v", v)):
        files.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    expected = {
        (0, 1): ("[0, 0.25]", "[0, 0.3125]", "0.734375"),
        (1, 0): ("[0, 0.5]", "[0.25, 0.5625]", "0.484375"),
    }
    for (a, b), (x_star, y_star, value) in expected.items():
        code, out, _ = run_cli(["doubling", files[a], files[b], "--epsilon", "0.25", "--p", "2"], capsys)
        assert code == 0
        assert out == (
            f'{{\n  "x_star": {x_star},\n  "y_star": {y_star},\n  "value": {value},\n'
            '  "epsilon": 0.25,\n  "kappa": 0.5,\n  "p": 2\n}\n'
        )


def test_experiment_csv(capsys):
    code, out, _ = run_cli(
        ["experiment", "--nodes", "128", "--csv", "--epsilons", "1e-1,1e-2,1e-3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,kappa,x_star,y_star,gap,penalty_term,distance_term"
    assert len(lines) == 4


def test_verify_suites(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "--suite", "oracle", "--n", "15", "--seed", "7"], capsys)
    assert code == 0
    assert "# passed 15/15" in out
    code, out1, _ = run_cli(["verify", "--suite", "metric", "--n", "5", "--seed", "3"], capsys)
    code2, out2, _ = run_cli(["verify", "--suite", "metric", "--n", "5", "--seed", "3"], capsys)
    assert out1 == out2  # byte-identical reruns
    code, _, err = run_cli(["verify", "--suite", "nonexistent"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "--suite", "metric", "--replay", "bundle.json"], capsys)
    assert code == 2
    assert "not allowed with" in err
    code, _, err = run_cli(["verify", "--suite", "duality", "--tol", "duality_rel"], capsys)
    assert code == 2
    assert "name=value" in err
    code, out, err = run_cli(["verify", "--suite", "metric", "--n", "2", "--tol", "symmetyr=1e-30"], capsys)
    assert code == 2
    assert out == "" and "unknown tolerance 'symmetyr'" in err
    # a replay takes its settings from the bundle; run options next to it are usage errors
    for extra in (["--tol", "duality_rel=1"], ["--n", "5"], ["--seed", "0"], ["--reproducer", "r.json"]):
        code, out, err = run_cli(["verify", "--replay", "bundle.json", *extra], capsys)
        assert code == 2
        assert out == "" and f"not allowed with {extra[0]}" in err


def test_main_reuses_its_parser_without_carrying_options_over(capsys, tmp_path, monkeypatch):
    import levyot.cli as cli

    monkeypatch.chdir(tmp_path)

    # an absurd tolerance fails the run and writes a bundle; the same run
    # without the override passes and writes none
    bundle = tmp_path / "repro.json"
    argv = ["verify", "--suite", "duality", "--n", "3", "--seed", "1"]
    code, out, _ = run_cli(argv + ["--tol", "duality_rel=1e-30", "--reproducer", str(bundle)], capsys)
    assert code == 1 and "FAIL" in out and bundle.exists()
    bundle.unlink()
    parser = cli._parser()
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and "# passed 3/3" in out and "FAIL" not in out and err == ""
    assert not bundle.exists() and cli._parser() is parser


def test_python_dash_m_runs_the_command_line():
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "levyot", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: levyot")


COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
from levyot import cli
seen["import"] = scipy_modules()
try:
    cli.main(["--help"])
except SystemExit:
    pass
seen["help"] = scipy_modules()
line_a, line_b, plane_a, plane_b, wide_a, wide_b, out = sys.argv[1:]
assert cli.main(["dist", line_a, line_b, "--out", out]) == 0
seen["dist d=1"] = scipy_modules()
assert cli.main(["dist", plane_a, plane_b, "--out", out]) == 0
seen["dist d=2"] = scipy_modules()
assert cli.main(["verify", "--suite", "duality", "--n", "2"]) == 0
seen["verify"] = scipy_modules()
assert cli.main(["experiment", "--nodes", "64", "--out", out]) == 0
seen["experiment"] = scipy_modules()
assert cli.main(["dist", wide_a, wide_b, "--out", out]) == 0
seen["dist above k-NN"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cold_start_imports_scipy_only_where_a_command_uses_it(tmp_path):
    # SciPy is imported inside the functions that use it: the package, --help,
    # solves at or below the k-NN threshold, a small verify suite and the
    # experiment load none of it; a solve above the threshold only scipy.spatial
    import subprocess
    from pathlib import Path

    from levyot.transport import KNN_ARCS

    files = [
        _write_measure(tmp_path / f"{name}.json", dim, [([0.3 * k + 0.1] * dim, 1.0 + k) for k in range(1, 4 + shift)])
        for name, dim, shift in (("line_a", 1, 0), ("line_b", 1, 1), ("plane_a", 2, 0), ("plane_b", 2, 1))
    ]
    side = math.isqrt(KNN_ARCS) + 1  # side * side real arcs, just above the threshold
    files += [
        _write_measure(tmp_path / f"wide_{shift}.json", 2, [([0.01 * k + shift, 0.1 * (k % 7)], 1.0 + k % 3) for k in range(1, side + 1)])
        for shift in (0.0, 0.005)
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", COLD_START, *files, str(tmp_path / "out.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == seen["help"] == seen["dist d=1"] == seen["dist d=2"] == []
    assert seen["verify"] == seen["experiment"] == []
    assert "scipy.spatial" in seen["dist above k-NN"]
    assert not [m for m in seen["dist above k-NN"] if m.startswith(("scipy.integrate", "scipy.interpolate"))]


def test_verify_failure_writes_reproducer(capsys, tmp_path):
    bundle_path = str(tmp_path / "repro.json")
    # an absurd tolerance forces a failure without breaking the solver
    code, out, err = run_cli(
        [
            "verify", "--suite", "duality", "--n", "3", "--seed", "1",
            "--tol", "duality_rel=1e-30", "--reproducer", bundle_path,
        ],
        capsys,
    )
    assert code == 1
    assert os.path.exists(bundle_path)
    bundle = json.loads(open(bundle_path).read())
    assert bundle["suite"] == "duality"
    # replaying with the same absurd tolerance reproduces the failure
    code, out, _ = run_cli(["verify", "--replay", bundle_path], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "bundle",
    [
        [{"suite": "duality", "seed": 1, "index": 0}],
        {"suite": "duality", "seed": "x", "index": 0},
        {"suite": "duality", "seed": 1, "index": -1},
        {"suite": "nonexistent", "seed": 1, "index": 0},
        {"suite": "duality", "seed": 1, "index": 0, "tols": {"symmetyr": 1e-30}},
        {"suite": "duality", "seed": 1, "index": 0, "tols": {"duality_rel": "x"}},
        {"suite": "duality", "seed": 1, "index": 0, "tols": {"duality_rel": -1.0}},
        {"suite": "duality", "seed": 1, "index": 0, "tols": {"duality_rel": float("inf")}},
    ],
    ids=[
        "list", "seed-string", "negative-index", "unknown-suite", "unknown-tol", "tol-string", "tol-negative",
        "tol-inf",
    ],
)
def test_replay_malformed_bundle(bundle, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run_cli(["verify", "--replay", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_outputs_use_17_digit_format(measure_files, capsys, tmp_path):
    a, b = measure_files
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["dist", a, b, "--p", "1", "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert "0.10000000000000001" in text or "0.1000000000000000" in text


# One valid input file per command; each numeric field in turn is written as a
# number that no float holds, or as a JSON extension that is not finite.
FILE_DOCS = {
    "dist": {"dim": 1, "atoms": [{"z": [0.3], "w": 1.0}]},
    "convolve": {"lo": [0.0], "hi": [1.0], "values": [0.0, 1.0, 0.0]},
    "doubling": {"lo": [0.0], "hi": [1.0], "values": [0.0, 1.0, 0.0]},
    "sweep-kernel": {
        "type": "kernel", "dim": 1, "sigma": 0.5, "gamma": 1.0,
        "params": {"base": 1.0, "amplitude": 0.5, "lambda1": 1.5},
        "grid": {"r_min": 0.05, "r_max": 1.0, "n_radial": 10, "n_angular": 4, "refine": 2},
    },
    "sweep-fraclap": {"type": "fraclap", "dim": 1, "sigma": 1.5, "params": {"a0": 0.5, "a1": 0.25}},
    "sweep-scaling": {"type": "levyito", "dim": 1, "sigma": 1.5, "params": {"kind": "scaling", "a0": 0.5, "a1": 0.25}},
    "sweep-translation": {
        "type": "levyito", "dim": 1, "base": {"dim": 1, "atoms": [{"z": [0.3], "w": 1.0}]},
        "params": {"kind": "translation", "shift": 0.1},
    },
    "replay": {"suite": "duality", "seed": 0, "index": 0, "tols": {"duality_rel": 1e-9}},
}
BAD_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "big": "1" + "0" * 400}


def _numeric_fields(doc, path=()):
    if isinstance(doc, dict):
        return [f for k, v in doc.items() for f in _numeric_fields(v, path + (k,))]
    if isinstance(doc, list):
        return [f for k, v in enumerate(doc) for f in _numeric_fields(v, path + (k,))]
    return [path] if _is_number(doc) else []


def _with_token(doc, field, token):
    """The JSON text of ``doc`` with the number at ``field`` written as ``token``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = "@"
    return json.dumps(doc).replace('"@"', token)


def _file_argv(command, path, tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(FILE_DOCS[command]))
    return {
        "dist": ["dist", path, str(ok)],
        "convolve": ["convolve", path, "--delta", "0.1"],
        "doubling": ["doubling", str(ok), path, "--epsilon", "0.1"],
        "replay": ["verify", "--replay", path],
    }.get(command, ["sweep", "--config", path, "--pairs", "1"])


FILE_CASES = [
    pytest.param(command, field, token, id=f"{command}-{'.'.join(map(str, field))}-{name}")
    for command, doc in FILE_DOCS.items()
    for field in _numeric_fields(doc)
    for name, token in BAD_NUMBERS.items()
    # a bundle may name any nonnegative integer seed and index, as --seed may
    if not (command == "replay" and field[0] in ("seed", "index") and name == "big")
]


@pytest.mark.parametrize("command, field, token", FILE_CASES)
def test_malformed_numbers_in_files_are_usage_errors(command, field, token, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(_with_token(FILE_DOCS[command], field, token))
    code, out, err = run_cli(_file_argv(command, str(path), tmp_path), capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "command, field, token",
    [
        ("dist", ("atoms", 0, "w"), BAD_NUMBERS["big"]),
        ("convolve", ("lo", 0), "NaN"),
        ("doubling", ("hi", 0), BAD_NUMBERS["big"]),
        ("sweep-kernel", ("params", "lambda1"), "Infinity"),
        ("replay", ("tols", "duality_rel"), BAD_NUMBERS["big"]),
    ],
    ids=["dist", "convolve", "doubling", "sweep", "replay"],
)
def test_malformed_number_file_exits_2_without_a_traceback(command, field, token, tmp_path):
    import subprocess
    from pathlib import Path

    path = tmp_path / "bad.json"
    path.write_text(_with_token(FILE_DOCS[command], field, token))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "levyot", *_file_argv(command, str(path), tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr.startswith("error:") and "Traceback" not in done.stderr
