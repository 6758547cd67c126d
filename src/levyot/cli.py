"""Command-line front end.

Subcommands: dist, dual, bounds, sweep, convolve, doubling, experiment,
verify.  All numeric output uses 17-significant-digit decimal formatting and
randomized commands echo their seed, so identical invocations are
byte-identical.  ``main`` is the one error boundary: a failed ``verify``
exits with status 1, unreadable input or bad usage with 2, a failed solve
with 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from . import bounds, families, suites, transport, viscosity
from .measures import (
    _MAX_RADIUS,
    _MIN_RADIUS,
    DiscreteMeasure,
    SchemaError,
    _check_p,
    _is_number,
    _read_json,
    load_measure,
    restrict_outside,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

VERIFY_N = 100  # default --n of a verify run


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj, indent: int = 0) -> str:
    """JSON text with every float rendered at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(map(_is_number, seq)):
            return "[" + ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in seq) + "]"
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _emit(text: str, out: Optional[str]) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(_fmt(c) for c in v)
    return _fmt(v)


def _emit_table(
    doc: dict, columns: tuple[str, ...], as_csv: bool, out: Optional[str], head: str = ""
) -> None:
    """``doc`` as JSON, or as CSV: the ``head`` line, the ``columns`` header, one line per row."""
    if as_csv:
        rows = [",".join(_cell(row[c]) for c in columns) for row in doc["rows"]]
        _emit("\n".join(([head] if head else []) + [",".join(columns)] + rows), out)
    else:
        _emit(_dump(doc), out)


# -- subcommands -------------------------------------------------------------

def cmd_dist(args) -> int:
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    rep = transport.solve(mu, nu, transport.CostSpec(args.p))
    _emit(_dump(rep.to_dict()), args.out)
    return EXIT_OK


def cmd_dual(args) -> int:
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    rep = transport.solve(mu, nu, transport.CostSpec(args.p))
    doc = rep.duals.to_dict()
    doc["dual_value"] = transport.dual_value(rep.duals, mu, nu)
    doc["primal_value"] = rep.value
    doc["gap"] = rep.gap
    _emit(_dump(doc), args.out)
    return EXIT_OK


BOUNDS_COLUMNS = ("bound_name", "lhs", "rhs", "slack", "pass")
SWEEP_COLUMNS = ("x", "y", "separation", "distance", "ratio", "truncation_cost")
EXPERIMENT_COLUMNS = ("epsilon", "kappa", "x_star", "y_star", "gap", "penalty_term", "distance_term")


def cmd_bounds(args) -> int:
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    p = args.p
    slack_tol = suites.DEFAULT_TOLS["bound_slack"]
    rows: list[dict] = []

    def row(name: str, lhs: float, rhs: float) -> None:
        slack = rhs - lhs
        rows.append(dict(zip(BOUNDS_COLUMNS, (name, lhs, rhs, slack, bool(slack >= -slack_tol)))))

    in_ball = mu.max_radius() < 1.0 and nu.max_radius() < 1.0
    dist = transport.distance(mu, nu, p)
    if in_ball:
        row("tv_power", dist, bounds.tv_power_bound(mu, nu, p))
        psi = bounds.RadialTestFunction.hat(0.2, 0.8)
        lhs, rhs = bounds.restricted_integral_bound(mu, nu, psi, p, dist)
        row("restricted_integral", lhs, rhs)
    if bounds.is_ordered(mu, nu):
        row("positive_part_dual", dist**p, bounds.positive_part_dual_bound(mu, nu, p))
    r = args.r
    row(
        "restriction",
        transport.distance(mu, restrict_outside(mu, r), p) ** p,
        bounds.restriction_bound(mu, r, p),
    )
    _emit_table({"p": p, "rows": rows}, BOUNDS_COLUMNS, not args.json, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    runtime = families.build_family(_read_json(args.config))
    report = families.regularity_sweep(
        runtime.make_measure,
        families.sweep_pairs(args.pairs, runtime.dim, args.seed),
        p=args.p,
        s=args.s,
        truncation_cost=lambda x: runtime.truncation_cost(x, args.p),
    )
    print(f"max_ratio={_fmt(report.max_ratio)} certified={report.certified}/{len(report.rows)}", file=sys.stderr)
    doc = {
        "seed": args.seed,
        "p": args.p,
        "s": args.s,
        "max_ratio": report.max_ratio,
        "rows": [
            {
                "x": rw.x.tolist(),
                "y": rw.y.tolist(),
                "separation": rw.separation,
                "distance": rw.distance,
                "ratio": rw.ratio,
                "truncation_cost": rw.truncation_cost,
            }
            for rw in report.rows
        ],
    }
    head = f"# seed={args.seed} p={_fmt(args.p)} s={_fmt(args.s)}"
    _emit_table(doc, SWEEP_COLUMNS, not args.json, args.out, head)
    return EXIT_OK


def _load_grid(path: str) -> viscosity.GridFunction:
    return viscosity.grid_from_dict(_read_json(path), path)


def cmd_convolve(args) -> int:
    grid = _load_grid(args.grid)
    op = viscosity.sup_convolution if args.mode == "sup" else viscosity.inf_convolution
    result = op(grid, args.delta)
    doc = {
        "lo": [float(v) for v in result.lo],
        "hi": [float(v) for v in result.hi],
        "values": result.values.tolist(),
        "mode": args.mode,
        "delta": args.delta,
    }
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_doubling(args) -> int:
    u, v = _load_grid(args.u), _load_grid(args.v)
    spec = viscosity.PenalizationSpec(epsilon=args.epsilon, kappa=args.kappa, p=args.p)
    res = viscosity.doubling_maximize(u, v, spec)
    doc = {
        "x_star": [float(c) for c in res.x_star],
        "y_star": [float(c) for c in res.y_star],
        "value": res.value,
        "epsilon": args.epsilon,
        "kappa": args.kappa,
        "p": args.p,
    }
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    shift = args.shift
    center = args.center

    def measures(x: float) -> DiscreteMeasure:
        return DiscreteMeasure(1, [[center + shift * math.sin(x)]], [1.0])

    eq = viscosity.EquationSpec(
        lam=args.lam,
        f=lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x),
        measures=measures,
    )
    report = viscosity.basic_idea_experiment(eq, n_nodes=args.nodes, epsilons=args.epsilons)
    doc = {
        "nodes": args.nodes,
        "lipschitz_C": shift,
        "u_leq_v": report.u_leq_v,
        "penalty_decreasing": report.penalty_decreasing,
        "rows": [{c: getattr(r, c) for c in EXPERIMENT_COLUMNS} for r in report.rows],
    }
    _emit_table(doc, EXPERIMENT_COLUMNS, args.csv, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.replay:
        bundle = _read_json(args.replay)
        result = suites.replay(bundle)
        status = "ok" if result.passed else "FAIL"
        print(f"[{status}] {bundle['suite']} i={result.index}: {result.detail}")
        return EXIT_OK if result.passed else EXIT_FAIL

    tols = dict(args.tol or [])
    n = VERIFY_N if args.n is None else args.n
    report = suites.run_suite(args.suite, n, 0 if args.seed is None else args.seed, tols)
    print(f"# suite={report.suite} n={n} seed={report.seed}")
    fails = report.failures
    for row in report.rows:
        status = "ok" if row.passed else "FAIL"
        print(f"[{status}] i={row.index}: {row.detail}")
    print(f"# passed {len(report.rows) - len(fails)}/{len(report.rows)}")
    if fails:
        bundle = {
            "suite": report.suite,
            "seed": report.seed,
            "index": fails[0].index,
            "detail": fails[0].detail,
            "tols": tols,
        }
        path = args.reproducer or f"levyot-failure-{report.suite}-{fails[0].index}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2)
        print(f"# reproducer written to {path}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _at_least(low: int):
    """argparse type for an integer option that must be >= ``low``."""

    def parse(tok: str) -> int:
        try:
            val = int(tok)
        except ValueError:
            val = None
        if val is None or val < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {tok!r}")
        return val

    return parse


def _ruled(rule):
    """argparse type for a number that the library's ``rule`` accepts.

    ``rule`` returns the number or raises ValueError, whose message becomes
    the usage error, so each range is written once, where the library
    enforces it.
    """

    def parse(tok: str) -> float:
        try:
            return rule(float(tok))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _list_of(parse):
    """argparse type for a comma-separated list of ``parse`` tokens."""
    return lambda tok: [parse(t) for t in tok.split(",")]


def _tol_override(tok: str) -> tuple[str, float]:
    key, sep, val = tok.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected name=value, got {tok!r}")
    if key not in suites.DEFAULT_TOLS:
        raise argparse.ArgumentTypeError(
            f"unknown tolerance {key!r}; known: {', '.join(suites.DEFAULT_TOLS)}"
        )
    return key, _ruled(suites._check_tol)(val)


def _check_translation(center: float, shift: float) -> None:
    """``experiment``'s atom center + shift * sin(x) is a valid site for every
    x: both numbers are finite, |center| - |shift| >= 2^-511 keeps it off the
    origin, and |center| + |shift| <= 2^510 keeps it in range."""
    if not (math.isfinite(center) and math.isfinite(shift)):
        raise ValueError(f"must be finite, got center {center!r} and shift {shift!r}")
    if not abs(center) - abs(shift) >= _MIN_RADIUS:
        raise ValueError(
            f"|center| - |shift| must be at least 2^-511 so the atom stays off the origin, got {center!r} and {shift!r}"
        )
    if abs(center) + abs(shift) > _MAX_RADIUS:
        raise ValueError(f"|center| + |shift| must be at most 2^510, got {center!r} and {shift!r}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as ``-5e-1`` as a negative number.

    argparse takes a token that starts with '-' for an option unless it
    matches its negative-number pattern, which knows ``-1`` and ``-.5`` but
    not the exponent form.  Subparsers are built from the parser's own
    class, so every subcommand reads negative numbers alike.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levyot",
        description="Reservoir optimal transport between discretized Levy measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("dist", help="solve the transport problem between two measure files")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--p", type=_ruled(_check_p), default=2.0)
    add_out(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("dual", help="report the optimal dual potentials")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--p", type=_ruled(_check_p), default=2.0)
    add_out(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("bounds", help="closed-form bounds against the exact distance (CSV)")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--p", type=_ruled(_check_p), default=2.0)
    p.add_argument("--r", type=_ruled(bounds._check_radius), default=0.5, help="radius for the restriction bound")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    add_out(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="regularity sweep of a family config (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--p", type=_ruled(_check_p), default=1.0)
    p.add_argument("--s", type=_ruled(families._check_s), default=1.0)
    p.add_argument("--pairs", type=_at_least(0), default=10)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convolve", help="sup/inf-convolution of a grid function")
    p.add_argument("grid")
    p.add_argument("--delta", type=_ruled(viscosity._check_delta), required=True)
    p.add_argument("--mode", choices=["sup", "inf"], default="sup")
    add_out(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("doubling", help="penalized two-point maximization of u(x) - v(y)")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--epsilon", type=_ruled(viscosity._check_epsilon), required=True)
    p.add_argument("--kappa", type=_ruled(viscosity._check_kappa), default=0.5)
    p.add_argument("--p", type=_ruled(_check_p), default=2.0)
    add_out(p)
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("experiment", help="linear-equation doubling experiment on a periodic line")
    p.add_argument("--nodes", type=_at_least(2), default=512)
    p.add_argument("--epsilons", type=_list_of(_ruled(viscosity._check_epsilon)), default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--lam", type=_ruled(viscosity._check_lam), default=1.0)
    p.add_argument("--shift", type=float, default=0.1, help="translation amplitude of the family")
    p.add_argument("--center", type=float, default=0.5, help="base position of the single atom")
    p.add_argument("--csv", action="store_true", help="emit per-epsilon CSV instead of JSON")
    add_out(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run a randomized invariant suite")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--suite", choices=list(suites.SUITES))
    source.add_argument("--replay", default=None, help="replay a failure bundle")
    # a replay takes its settings from the bundle, so these four stay unset for it
    p.add_argument("--n", type=_at_least(0), default=None, help=f"instances to draw (default {VERIFY_N})")
    p.add_argument("--seed", type=_at_least(0), default=None, help="default 0")
    p.add_argument(
        "--tol", action="append", type=_tol_override, default=None, help="override as name=value"
    )
    p.add_argument("--reproducer", default=None, help="path for the failure bundle")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the parser
    as it was, since every option's default is immutable or None."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "replay", None):
        given = [f"--{k}" for k in ("tol", "n", "seed", "reproducer") if getattr(args, k) is not None]
        if given:
            parser.error(f"argument --replay: not allowed with {', '.join(given)}")
    if args.command == "experiment":
        try:
            _check_translation(args.center, args.shift)
        except ValueError as exc:
            parser.error(f"argument --center/--shift: {exc}")
    try:
        return args.func(args)
    except (SchemaError, OSError, UnicodeDecodeError) as exc:  # unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
