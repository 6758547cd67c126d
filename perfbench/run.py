"""Seeded end-to-end benchmark of levyot.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process through levyot's public entry points
(``levyot.cli.main`` and ``levyot.suites.run_suite``), checks every output
with ``certify`` (computed apart from levyot), and prints one JSON object as
the last line of stdout: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Run from the root of a levyot checkout;
the package is imported from its ``src`` directory.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "levyot" / "__init__.py").is_file():
    sys.exit(f"error: no levyot sources under {SRC}; run from the root of a levyot checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import certify  # noqa: E402
import levyot.cli  # noqa: E402
import levyot.families  # noqa: E402
import levyot.suites  # noqa: E402
import levyot.viscosity  # noqa: E402

DEFAULT_SEEDS = {"dense_dist": 1111, "family_sweep": 7, "grid_viscosity": 808, "verify_small": 0}
SETUP_REPEATS = 3
SAMPLE_PERIOD_S = 0.02
# The heavy-mass sweep pairs do not depend on --seed: their p = 2 rows hit a
# known solver fault, and a failing input must stay the same in every run.
HEAVY_PAIR_SEED = 2018

KERNEL_CONFIG = {
    "type": "kernel",
    "dim": 2,
    "sigma": 0.5,
    "gamma": 1.0,
    "params": {"base": 1.0, "amplitude": 0.5},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_radial": 60, "n_angular": 8},
}
HEAVY_CONFIG = {
    "type": "fraclap",
    "dim": 2,
    "sigma": 1.8,
    "params": {"a0": 0.5, "a1": 0.25, "part": "full"},
    "grid": {"r_min": 1e-7, "r_max": 1.0, "n_radial": 120, "n_angular": 8},
}


class Reference:
    """Fixed work that does not use levyot, timed around every operation.

    One unit mixes interpreter steps (a short arithmetic loop and walks up a
    parent-pointer tree, like a simplex pivot) with NumPy arithmetic on a
    small array.  Its data stays under 64 KB, so its time hardly depends on
    what the operation left in the caches.  Its time tracks the machine's
    momentary speed, so operation time over unit time cancels drift.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.parent = [-1] + [int(rng.integers(0, k)) for k in range(1, 500)]
        self.flow = rng.random(500).tolist()
        self.array = rng.random(2048)

    def unit(self) -> float:
        acc = 0.0
        for k in range(200):
            acc += (k * k) % 7
        for start in range(480, 500):
            node = start
            while node > 0:
                acc += self.flow[node]
                node = self.parent[node]
        a = self.array
        for _ in range(3):
            a = np.sqrt(a * a + 1.0)
        return acc + float(a[-1])

    def timed_unit(self) -> float:
        start = time.perf_counter()
        self.unit()
        return time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Time one unit every SAMPLE_PERIOD_S while the body runs.

        SIGALRM runs the unit between bytecodes of the operation, so the
        samples see the machine's speed during it, not only before it.  Each
        sample first runs one untimed unit, so it sees speed, not the caches
        the operation left cold.  Yields ``(samples, spent)``: the unit times,
        and a one-element list with the total time taken from the operation.
        """
        samples: list[float] = []
        spent = [0.0]

        def sample(signum, frame) -> None:
            start = time.perf_counter()
            self.unit()
            samples.append(self.timed_unit())
            spent[0] += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield samples, spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``collect`` (untimed) fetches what
    ``check`` needs.  ``check`` returns (known-fault failures, problems)."""

    name: str
    rows: int
    run: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], tuple[int, list[str]]]
    out_bytes: Callable[[Any], int] = lambda _: 0


@dataclass
class Workload:
    build: Callable[[], None]
    ops: list[Op]
    ref_repeats: int
    sample_check: Callable[[], list[str]] = lambda: []


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure_doc(z, w) -> dict:
    return {"dim": int(z.shape[1]), "atoms": [{"z": list(map(float, zz)), "w": float(ww)} for zz, ww in zip(z, w)]}


def _cli_op(name: str, argv: list[str], out: Path, rows: int, check_doc, known_fault: bool = False) -> Op:
    """A ``levyot`` command writing JSON to ``out``; ``check_doc`` gives
    (failing rows, problems) for the parsed output."""

    def collect(code):
        return code, out.read_text(encoding="utf-8") if code == 0 else ""

    def check(got) -> tuple[int, list[str]]:
        code, text = got
        if code != 0:
            return 0, [f"{name}: exit code {code}"]
        bad, problems = check_doc(json.loads(text))
        problems = [f"{name}: {p}" for p in problems]
        if known_fault:
            return bad, []
        return 0, problems

    return Op(name, rows, lambda: levyot.cli.main(argv), collect, check, lambda got: len(got[1]))


def _suite_op(suite: str, n: int, seed: int) -> Op:
    def check(report) -> tuple[int, list[str]]:
        if len(report.rows) != n:
            return 0, [f"{suite} seed={seed}: {len(report.rows)} rows, expected {n}"]
        return 0, [f"{suite} seed={seed} i={r.index}: {r.detail}" for r in report.failures]

    return Op(f"{suite}/{seed}", n, lambda: levyot.suites.run_suite(suite, n, seed), lambda r: r, check)


# -- workloads ---------------------------------------------------------------


def dense_dist(seed: int, work: Path) -> Workload:
    """``levyot dist --out`` on two criterion-11-shaped pairs, at p = 1 and p = 2.

    Two pairs per round halve the run-to-run spread that comes from how many
    pivots one random instance happens to need.
    """
    pairs = ("a", "b")
    docs: dict[str, dict] = {}

    def path(side: str, pair: str) -> Path:
        return work / f"{side}_{pair}.json"

    def build() -> None:
        rng = np.random.default_rng(seed)
        for pair in pairs:
            x = rng.normal(size=(2000, 3))
            y = rng.normal(size=(2000, 3))
            _write_json(path("mu", pair), _measure_doc(x, rng.uniform(0.2, 2.0, 2000)))
            _write_json(path("nu", pair), _measure_doc(y, rng.uniform(0.2, 2.0, 2000)))

    def op(pair: str, p: str) -> Op:
        def check_doc(doc):
            for side in ("mu", "nu"):
                if side + pair not in docs:
                    docs[side + pair] = _read_json(path(side, pair))
            return 0, certify.dist_certificate(docs["mu" + pair], docs["nu" + pair], doc, float(p))

        out = work / f"dist_{pair}_p{p}.json"
        argv = ["dist", str(path("mu", pair)), str(path("nu", pair)), "--p", p, "--out", str(out)]
        return _cli_op(f"dist {pair} p={p}", argv, out, 1, check_doc)

    return Workload(build, [op(pair, p) for pair in pairs for p in ("1", "2")], ref_repeats=100)


def family_sweep(seed: int, work: Path) -> Workload:
    """``levyot sweep --json`` on a kernel and a heavy-mass fractional family."""
    configs = {"kernel": (KERNEL_CONFIG, seed, 6), "heavy": (HEAVY_CONFIG, HEAVY_PAIR_SEED, 3)}
    cache: dict[tuple, tuple[float, float]] = {}

    def build() -> None:
        for name, (config, _, _) in configs.items():
            _write_json(work / f"{name}.json", config)

    def endpoints_plan(name: str, x: list[float], y: list[float], p: float) -> tuple[float, float]:
        key = (name, tuple(x), tuple(y), p)
        if key not in cache:
            runtime = levyot.families.build_family(configs[name][0])
            hats = []
            for pt in (x, y):
                mu = runtime.make_measure(np.array(pt))
                inside = mu.radii < 1.0
                hats.append((mu.positions[inside], mu.weights[inside]))
            (za, wa), (zb, wb) = hats
            cache[key] = certify.in_place_plan(za, wa, zb, wb, p)
        return cache[key]

    def op(name: str, p: str) -> Op:
        config, pair_seed, pairs = configs[name]

        def check_doc(doc):
            problems, bad = [], 0
            if len(doc["rows"]) != pairs:
                return pairs, [f"{len(doc['rows'])} rows, expected {pairs}"]
            for row in doc["rows"]:
                sep = math.dist(row["x"], row["y"])
                row_problems = certify.sweep_row_problems(
                    row["distance"], *endpoints_plan(name, row["x"], row["y"], float(p)), float(p)
                )
                if abs(sep - row["separation"]) > 1e-12 * sep:
                    row_problems.append(f"separation {row['separation']!r} != {sep!r}")
                bad += bool(row_problems)
                problems += [f"x={row['x']}: {q}" for q in row_problems]
            return bad, problems

        out = work / f"sweep_{name}_p{p}.json"
        argv = ["sweep", "--config", str(work / f"{name}.json"), "--p", p, "--s", "1",
                "--pairs", str(pairs), "--seed", str(pair_seed), "--json", "--out", str(out)]
        return _cli_op(f"sweep {name} p={p}", argv, out, pairs, check_doc,
                       known_fault=(name == "heavy" and p == "2"))

    ops = [op("kernel", "1"), op("kernel", "2"), op("heavy", "1"), op("heavy", "2")]
    return Workload(build, ops, ref_repeats=30)


def _trig_grid(rng, dim: int, n: int, box: float) -> np.ndarray:
    """A smooth random sample on an n^dim box grid, scaled to sup-norm one."""
    axes = np.meshgrid(*[np.linspace(-box, box, n)] * dim, indexing="ij")
    vals = np.zeros_like(axes[0])
    for k in range(1, 6):
        wave = rng.normal() / k
        for ax in axes:
            wave = wave * np.cos(k * math.pi * ax / box + rng.uniform(0, 2 * math.pi))
        vals = vals + wave
    return vals / np.max(np.abs(vals))


def grid_viscosity(seed: int, work: Path) -> Workload:
    """The ``supconv`` and ``coupling`` suites plus ``levyot experiment``."""
    out = work / "experiment.json"
    ops = [_suite_op("supconv", 2, seed * 100 + k) for k in range(3)]
    ops += [_suite_op("coupling", 12, seed * 100 + 10 + k) for k in range(8)]
    ops.append(
        _cli_op("experiment", ["experiment", "--nodes", "512", "--out", str(out)], out, 1,
                lambda doc: (0, certify.experiment_problems(doc)))
    )

    def sample_check() -> list[str]:
        vis = levyot.viscosity
        rng = np.random.default_rng([seed, 1])
        problems = []
        for dim, n, delta in ((1, 512, 1e-2), (1, 512, 1e-3), (2, 48, 1e-2)):
            vals = _trig_grid(rng, dim, n, 1.0)
            lo, hi = np.full(dim, -1.0), np.full(dim, 1.0)
            conv, arg = vis.sup_convolution(vis.GridFunction(lo, hi, vals), delta, with_achievers=True)
            problems += certify.supconv_problems(vals, lo, hi, delta, conv.values, arg)
        for dim, n in ((1, 192), (2, 24)):
            u, v = _trig_grid(rng, dim, n, 2.0), _trig_grid(rng, dim, n, 2.0)
            lo, hi = np.full(dim, -2.0), np.full(dim, 2.0)
            for p, kappa in ((1.0, 1e-3), (1.5, 0.1), (2.0, 0.5)):
                spec = vis.PenalizationSpec(epsilon=float(rng.uniform(0.05, 0.5)), kappa=kappa, p=p)
                res = vis.doubling_maximize(vis.GridFunction(lo, hi, u), vis.GridFunction(lo, hi, v), spec)
                problems += certify.doubling_problems(
                    u, v, lo, hi, spec.epsilon, kappa, p, res.value, res.index
                )
        return problems

    return Workload(lambda: None, ops, ref_repeats=30, sample_check=sample_check)


def verify_small(seed: int, work: Path) -> Workload:
    """Five small-instance suites, one operation per instance."""
    counts = (("duality", 400), ("metric", 200), ("oracle", 400), ("ksupport", 300), ("bounds", 300))
    ops = [_suite_op(suite, 1, seed * 1000 + k) for suite, count in counts for k in range(count)]

    def sample_check() -> list[str]:
        """Duality-style instances through ``levyot dist``, certified apart."""
        rng = np.random.default_rng([seed, 2])
        problems = []
        for k in range(16):
            dim = int(rng.integers(1, 4))
            docs = []
            for side in ("mu", "nu"):
                n = int(rng.integers(0, 41))
                dirs = rng.normal(size=(n, dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                z = rng.uniform(0.05, 2.0, size=n)[:, None] * dirs
                docs.append(_measure_doc(z, rng.uniform(0.1, 3.0, size=n)))
                _write_json(work / f"sample_{side}.json", docs[-1])
            p = float(rng.choice([1.0, 1.5, 2.0]))
            out = work / "sample_out.json"
            code = levyot.cli.main(["dist", str(work / "sample_mu.json"), str(work / "sample_nu.json"),
                                    "--p", repr(p), "--out", str(out)])
            if code != 0:
                problems.append(f"sample {k}: exit code {code}")
                continue
            problems += [f"sample {k}: {q}" for q in certify.dist_certificate(*docs, _read_json(out), p)]
        return problems

    return Workload(lambda: None, ops, ref_repeats=2, sample_check=sample_check)


WORKLOADS = {f.__name__: f for f in (dense_dist, family_sweep, grid_viscosity, verify_small)}


# -- measurement -------------------------------------------------------------


def cold_import_s() -> float:
    """Wall time of a fresh interpreter that imports levyot's command line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import levyot.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def setup_s(workload: Workload) -> float:
    """Median of several set-ups: cold import plus building the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = cold_import_s()
        start = time.perf_counter()
        workload.build()
        times.append(t + time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Round:
    traced: bool
    op_s: float  # wall time of the operations
    unit_s: float  # mean reference-unit time around them, weighted by op_s
    out_bytes: int


def run_rounds(workload: Workload, reference: Reference, seconds: float, tracer) -> tuple[list[Round], list[tuple[Op, Any]]]:
    """Whole rounds of the workload's operations until ``seconds`` are spent.

    Another round starts while it would end no more than half a round past
    the deadline.  With a tracer, untraced and traced rounds alternate
    (untraced first), so their difference is the tracing overhead.
    """
    rounds: list[Round] = []
    outputs: list[tuple[Op, Any]] = []
    clock = time.perf_counter
    start = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t_round = clock()
        op_s = weighted_unit_s = 0.0
        out_bytes = 0
        for op in workload.ops:
            before = [reference.timed_unit() for _ in range(workload.ref_repeats)]
            if traced:
                tracer.install()
            with reference.sampling() as (during, spent):
                t1 = clock()
                result = op.run()
                t2 = clock()
            if traced:
                tracer.uninstall()
            got = op.collect(result)
            out_bytes += op.out_bytes(got)
            outputs.append((op, got))
            elapsed = t2 - t1 - spent[0]
            op_s += elapsed
            weighted_unit_s += elapsed * statistics.fmean(before + during)
        rounds.append(Round(traced, op_s, weighted_unit_s / op_s, out_bytes))
        now = clock()
        need_traced = tracer is not None and not any(r.traced for r in rounds)
        if not need_traced and now - start + 0.5 * (now - t_round) > seconds:
            return rounds, outputs


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not Path(levyot.__file__).resolve().is_relative_to(SRC):
        print(f"error: levyot imported from {levyot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](seed, work)
    setup = setup_s(workload)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    rounds, outputs = run_rounds(workload, Reference(), args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    problems: list[str] = []
    for op, got in outputs:
        bad, op_problems = op.check(got)
        attempted += op.rows
        failed += bad
        problems += op_problems
    problems += workload.sample_check()

    plain = [r for r in rounds if not r.traced]
    run_s = statistics.median(r.op_s for r in plain)
    run_ref = statistics.median(r.op_s / r.unit_s for r in plain)
    if tracer is None:
        metrics = {"setup_s": setup, "run_ref": run_ref, "peak_rss_mb": peak_rss_mb}
    else:
        traced = [r for r in rounds if r.traced]
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["cli.out_bytes"] = sum(r.out_bytes for r in traced) / len(traced)
        # Taken in reference units, so machine drift between rounds cancels.
        traced_ref = statistics.median(r.op_s / r.unit_s for r in traced)
        metrics["trace.overhead_s"] = (traced_ref - run_ref) * statistics.median(r.unit_s for r in plain)
        metrics["wall.run_s"] = run_s
        tracer.dump(work / "trace.json")

    env = {
        "workload": args.workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "run_s": run_s,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "round_op_s": [round(r.op_s, 4) for r in rounds],
    }
    spec = _read_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    _write_json(work / f"result_trace{args.trace}.json", {"env": env, **result})
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
