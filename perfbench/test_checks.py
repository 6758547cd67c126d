"""Self-tests: every benchmark check accepts levyot's output and rejects it
once corrupted.

    python3 -m pytest perfbench/test_checks.py -q
    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src on sys.path)
import certify  # noqa: E402
import numpy as np  # noqa: E402
from levyot import cli, viscosity  # noqa: E402


def _dist_case(p: str) -> tuple[dict, dict, dict]:
    rng = np.random.default_rng(11)
    docs = [run._measure_doc(rng.normal(size=(n, 2)), rng.uniform(0.2, 2.0, n)) for n in (30, 25)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("mu.json", "nu.json", "out.json")]
        for path, doc in zip(paths, docs):
            run._write_json(path, doc)
        assert cli.main(["dist", *map(str, paths[:2]), "--p", p, "--out", str(paths[2])]) == 0
        return docs[0], docs[1], run._read_json(paths[2])


def test_dist_certificate_accepts_and_rejects():
    for p in ("1", "2"):
        mu, nu, out = _dist_case(p)
        assert certify.dist_certificate(mu, nu, out, float(p)) == []
        i, j, v = out["plan"]["direct"][0]
        w_i = mu["atoms"][int(i)]["w"]

        bad = copy.deepcopy(out)
        bad["plan"]["direct"][0][2] = v + 1e-6 * w_i
        assert any("marginals off" in q for q in certify.dist_certificate(mu, nu, bad, float(p)))

        bad = copy.deepcopy(out)
        bad["duals"]["phi"][int(i)] += 1e-6
        assert any("dual constraint" in q for q in certify.dist_certificate(mu, nu, bad, float(p)))

        bad = copy.deepcopy(out)
        bad["value"] *= 1.0 + 1e-9
        assert any("recomputed value" in q for q in certify.dist_certificate(mu, nu, bad, float(p)))


def test_sweep_check_accepts_and_rejects():
    with tempfile.TemporaryDirectory() as tmp:
        workload = run.family_sweep(3, Path(tmp))
        workload.build()
        op = workload.ops[0]  # kernel family, p = 1
        code, text = op.collect(op.run())
        assert op.check((code, text)) == (0, [])
        doc = json.loads(text)
        doc["rows"][1]["distance"] *= 1.0 + 1e-6
        failed, problems = op.check((code, json.dumps(doc)))
        assert failed == 0 and len(problems) == 1


def test_supconv_check_accepts_and_rejects():
    rng = np.random.default_rng(5)
    vals = run._trig_grid(rng, 1, 96, 1.0)
    lo, hi = np.array([-1.0]), np.array([1.0])
    conv, arg = viscosity.sup_convolution(viscosity.GridFunction(lo, hi, vals), 1e-2, with_achievers=True)
    assert certify.supconv_problems(vals, lo, hi, 1e-2, conv.values, arg) == []

    bad_vals = conv.values.copy()
    bad_vals[40] += 1e-6
    assert certify.supconv_problems(vals, lo, hi, 1e-2, bad_vals, arg)

    bad_arg = arg.copy()
    bad_arg[40] = (arg[40] + 48) % 96
    assert certify.supconv_problems(vals, lo, hi, 1e-2, conv.values, bad_arg)


def test_doubling_check_accepts_and_rejects():
    rng = np.random.default_rng(6)
    u, v = run._trig_grid(rng, 2, 12, 2.0), run._trig_grid(rng, 2, 12, 2.0)
    lo, hi = np.full(2, -2.0), np.full(2, 2.0)
    spec = viscosity.PenalizationSpec(epsilon=0.2, kappa=0.1, p=1.5)
    res = viscosity.doubling_maximize(viscosity.GridFunction(lo, hi, u), viscosity.GridFunction(lo, hi, v), spec)
    args = (u, v, lo, hi, 0.2, 0.1, 1.5)
    assert certify.doubling_problems(*args, res.value, res.index) == []
    assert certify.doubling_problems(*args, res.value + 1e-6, res.index)
    i, j = res.index
    assert certify.doubling_problems(*args, res.value, (i, (j + 70) % 144))


def test_experiment_check_accepts_and_rejects():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "exp.json"
        assert cli.main(["experiment", "--nodes", "128", "--out", str(out)]) == 0
        doc = run._read_json(out)
    assert certify.experiment_problems(doc) == []
    row = max(doc["rows"], key=lambda r: r["distance_term"])
    row["distance_term"] *= 1.0 + 1e-6
    assert certify.experiment_problems(doc)


def test_in_place_plan_is_certified_only_when_tight():
    z = np.array([[0.5, 0.0], [0.0, 0.25]])
    cost, lower = certify.in_place_plan(z, np.array([2.0, 3.0]), z, np.array([1.0, 1.0]), 1.0)
    assert cost == lower == 0.5 + 0.5
    assert certify.sweep_row_problems(cost, cost, lower, 1.0) == []
    # weights ordered differently at the two atoms: the dual bound is not tight
    cost, lower = certify.in_place_plan(z, np.array([2.0, 1.0]), z, np.array([1.0, 3.0]), 1.0)
    assert certify.sweep_row_problems(cost, cost, lower, 1.0)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
