"""Spans around calls into levyot's public functions, recorded from outside.

``Tracer.install`` replaces every module binding of each traced function
(a name brought in with ``from ... import`` is a binding of its own) and the
class attribute of each traced method with a wrapper that records a span:
name, start, end, parent span and a few exact counts.  ``uninstall`` puts the
originals back.  Spans stay in memory; ``dump`` writes them out at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Optional


def _solve_info(args, kwargs, result) -> dict:
    mu, nu, cost = args[:3]
    return {
        "p": cost.p,
        "pivots": result.iterations,
        "arcs": (mu.n_atoms + 1) * (nu.n_atoms + 1),
    }


def _construct_info(args, kwargs, result) -> dict:
    return {"atoms": args[0].n_atoms}


def _supconv_info(args, kwargs, result) -> dict:
    n = args[0].values.size
    return {"pairs": n * n}


def _doubling_info(args, kwargs, result) -> dict:
    return {"pairs": args[0].values.size * args[1].values.size}


def _suite_info(args, kwargs, result) -> dict:
    return {"instances": len(result.rows)}


# (span name, owner, attribute, counts extractor); an owner "levyot.transport"
# is a module, "levyot.transport:CostSpec" a class.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("transport.solve", "levyot.transport", "solve", _solve_info),
    ("transport.pair_matrix", "levyot.transport:CostSpec", "pair_matrix", None),
    ("transport.verify_plan", "levyot.transport", "verify_plan", None),
    ("transport.k_support_check", "levyot.transport", "k_support_check", None),
    ("transport.violations", "levyot.transport:DualPotentials", "violations", None),
    ("transport.dual_value", "levyot.transport", "dual_value", None),
    ("transport.brute_force_unit", "levyot.transport", "brute_force_unit", None),
    ("measures.construct", "levyot.measures:DiscreteMeasure", "__init__", _construct_info),
    ("measures.decompose", "levyot.measures", "decompose", None),
    ("measures.tv_distance", "levyot.measures", "tv_distance", None),
    ("measures.load_measure", "levyot.measures", "load_measure", None),
    ("families.build_family", "levyot.families", "build_family", None),
    ("families.make_measure", "levyot.families:FamilyRuntime", "make_measure", None),
    ("families.truncation_cost", "levyot.families:FamilyRuntime", "truncation_cost", None),
    ("viscosity.sup_convolution", "levyot.viscosity", "sup_convolution", _supconv_info),
    ("viscosity.inf_convolution", "levyot.viscosity", "inf_convolution", None),
    ("viscosity.doubling_maximize", "levyot.viscosity", "doubling_maximize", _doubling_info),
    ("viscosity.levy_op_eval", "levyot.viscosity", "levy_op_eval", None),
    ("viscosity.coupling_inequality_check", "levyot.viscosity", "coupling_inequality_check", None),
    ("viscosity.basic_idea_experiment", "levyot.viscosity", "basic_idea_experiment", None),
    ("bounds.tv_power_bound", "levyot.bounds", "tv_power_bound", None),
    ("bounds.positive_part_dual_bound", "levyot.bounds", "positive_part_dual_bound", None),
    ("bounds.restriction_bound", "levyot.bounds", "restriction_bound", None),
    ("bounds.pushforward_bound", "levyot.bounds", "pushforward_bound", None),
    ("bounds.restricted_integral_bound", "levyot.bounds", "restricted_integral_bound", None),
    ("suites.run_suite", "levyot.suites", "run_suite", _suite_info),
    ("cli.main", "levyot.cli", "main", None),
]

MODULES = [
    "levyot",
    "levyot.measures",
    "levyot.transport",
    "levyot.families",
    "levyot.viscosity",
    "levyot.bounds",
    "levyot.suites",
    "levyot.cli",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info: Optional[dict] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for name, owner, attr, info in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            holder = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(holder, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, info))
                continue
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original, info)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.info] for s in self.spans],
                fh,
                separators=(",", ":"),
            )


def _durations(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Inclusive and self time of every span."""
    total = [s.end - s.start for s in spans]
    own = list(total)
    for s, t in zip(spans, total):
        if s.parent >= 0:
            own[s.parent] -= t
    return total, own


def _outermost(spans: list[Span], idx: int, group: set[str]) -> bool:
    """True when no ancestor of span ``idx`` belongs to ``group``."""
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name in group:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer totals of the traced rounds, per round."""
    total, own = _durations(spans)
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(k)

    def inclusive(*names: str) -> float:
        group = set(names)
        return sum(
            total[k]
            for name in names
            for k in by_name.get(name, [])
            if _outermost(spans, k, group)
        )

    def self_time(*names: str, where: Callable[[Span], bool] = lambda s: True) -> float:
        return sum(own[k] for name in names for k in by_name.get(name, []) if where(spans[k]))

    def count(name: str, key: Optional[str] = None) -> float:
        ks = by_name.get(name, [])
        if key is None:
            return float(len(ks))
        return float(sum((spans[k].info or {}).get(key, 0) for k in ks))

    solve_self = self_time("transport.solve")
    pivots = count("transport.solve", "pivots")
    out = {
        "transport.solve_s": solve_self,
        "transport.solve_p1_s": self_time("transport.solve", where=lambda s: s.info is not None and s.info["p"] == 1.0),
        "transport.solve_p2_s": self_time("transport.solve", where=lambda s: s.info is not None and s.info["p"] == 2.0),
        "transport.pair_matrix_s": inclusive("transport.pair_matrix"),
        "transport.solves": count("transport.solve"),
        "transport.pivots": pivots,
        "transport.pivots_per_s": pivots / solve_self if solve_self > 0 else 0.0,
        "transport.arcs": count("transport.solve", "arcs"),
        "transport.audit_s": inclusive(
            "transport.verify_plan",
            "transport.k_support_check",
            "transport.violations",
            "transport.dual_value",
        ),
        "transport.oracle_s": inclusive("transport.brute_force_unit"),
        "measures.construct_s": inclusive("measures.construct"),
        "measures.atoms_constructed": count("measures.construct", "atoms"),
        "measures.decompose_s": inclusive("measures.decompose"),
        "measures.tv_distance_s": inclusive("measures.tv_distance"),
        "measures.load_s": inclusive("measures.load_measure"),
        "families.make_measure_s": inclusive("families.make_measure"),
        "families.truncation_cost_s": inclusive("families.truncation_cost"),
        "families.build_family_s": inclusive("families.build_family"),
        "viscosity.sup_convolution_s": inclusive("viscosity.sup_convolution"),
        "viscosity.sup_convolution_pairs": count("viscosity.sup_convolution", "pairs"),
        "viscosity.inf_convolution_s": self_time("viscosity.inf_convolution"),
        "viscosity.doubling_maximize_s": inclusive("viscosity.doubling_maximize"),
        "viscosity.doubling_pairs": count("viscosity.doubling_maximize", "pairs"),
        "viscosity.levy_op_eval_s": inclusive("viscosity.levy_op_eval"),
        "viscosity.coupling_check_s": self_time("viscosity.coupling_inequality_check"),
        "viscosity.experiment_s": self_time("viscosity.basic_idea_experiment"),
        "bounds.total_s": self_time(
            "bounds.tv_power_bound",
            "bounds.positive_part_dual_bound",
            "bounds.restriction_bound",
            "bounds.pushforward_bound",
            "bounds.restricted_integral_bound",
        ),
        "suites.instances": count("suites.run_suite", "instances"),
        "suites.self_s": self_time("suites.run_suite"),
        "cli.self_s": self_time("cli.main"),
    }
    return {k: v / rounds for k, v in out.items()}
