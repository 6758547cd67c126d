"""Optimal transport with a mass reservoir at the origin.

Measures are finite atom lists on R^d away from 0; the origin absorbs and
emits mass for free, so measures of different total mass are comparable.  The
package provides the exact transportation solver and its dual potentials,
closed-form distance bounds, base-point-indexed measure families with
quadrature discretization, and the grid experiments for the doubling-of-
variables comparison machinery.
"""

from .measures import (
    DiscreteMeasure,
    MeasureDecomposition,
    SchemaError,
    decompose,
    load_measure,
    n_p,
    restrict_outside,
    tv_distance,
    weight_by_power,
)
from .transport import (
    CostSpec,
    DualPotentials,
    SolveReport,
    TransportPlan,
    brute_force_unit,
    distance,
    dual_value,
    k_support_check,
    solve,
    verify_plan,
)

__all__ = [
    "DiscreteMeasure",
    "MeasureDecomposition",
    "SchemaError",
    "decompose",
    "load_measure",
    "n_p",
    "restrict_outside",
    "tv_distance",
    "weight_by_power",
    "CostSpec",
    "DualPotentials",
    "SolveReport",
    "TransportPlan",
    "brute_force_unit",
    "distance",
    "dual_value",
    "k_support_check",
    "solve",
    "verify_plan",
]

__version__ = "0.1.0"
