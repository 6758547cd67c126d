"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import os

import pytest

from levyot.cli import main

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
    bad.write_text(json.dumps(doc))
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


@pytest.mark.parametrize("nu_atoms", [[([-1e160, 1.0], 2.0)], []], ids=["pair", "empty-side"])
def test_dist_overflow_is_solver_failure(nu_atoms, tmp_path, capsys):
    big = _write_measure(tmp_path / "big.json", 2, [([1e160, 0.0], 1.0), ([0.0, 3.0], 1.0)])
    other = _write_measure(tmp_path / "other.json", 2, nu_atoms)
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, err = run_cli(["dist", big, other, "--p", "2"], capsys)
    assert code == 3
    assert out == "" and err.startswith("solver failure:")


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


def test_sweep_zero_pairs(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "constant", "dim": 1, "grid": {"r_min": 0.05, "n_radial": 10}}))
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--pairs", "0"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # comment + header only


@pytest.mark.parametrize(
    "config",
    [
        {"type": "unknown-kind"},
        {"type": "kernel", "grid": {"bogus": 1}},
        {"type": "kernel", "params": []},
        {"type": "kernel", "grid": {"n_radial": "x"}},
        {"type": "fraclap", "params": {"a0": 0.1, "a1": 0.5}},
        {"type": "levyito", "params": {"kind": "scaling", "a0": 0.1, "a1": 0.5}},
        {"type": "kernel", "sigma": 10**400},
        {"type": "constant", "dim": 10**400},
    ],
    ids=[
        "unknown-kind", "grid-field", "params-list", "grid-count", "fraclap-range", "scaling-range",
        "sigma-huge", "dim-huge",
    ],
)
def test_sweep_config_error(config, tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "config error" in err


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
    ],
    ids=["verify-seed", "sweep-seed", "verify-n", "verify-n-float", "sweep-pairs", "nodes-0", "nodes-1", "epsilons"],
)
def test_option_out_of_range_is_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"type": "constant", "dim": 1, "grid": {"r_min": 0.05, "n_radial": 10}}))
    code, out, err = run_cli([tok.format(cfg=cfg) for tok in argv], capsys)
    assert code == 2
    assert out == "" and f"error: argument {argv[-2]}" in err


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
    ],
    ids=["list", "seed-string", "negative-index", "unknown-suite", "unknown-tol", "tol-string"],
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
