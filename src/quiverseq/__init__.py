"""Exact weighted-quiver mutation, dual-number recurrences, and Laurent checks.

The package has five layers:

* ``dualnum``     exact dual scalars a + b·ε (ε² = 0) over ints/rationals
* ``quiver``      skew-symmetric exchange matrices, mutation, weights, rotation
* ``periodicity`` primitive quivers, period-1 tests, weight-function solving
* ``laurent``     symbolic dual values (one fraction type) and exchange runs
* ``seqgen``      dual recurrence runs, basis decomposition, integrality scans

plus a ``quiverseq`` CLI binding them together.
"""

from .dualnum import DualScalar, ZeroBodyError, format_scalar
from .errors import QuiverSeqError
from .laurent import (
    NotLaurent,
    RationalDualExpr,
    evaluate,
    initial_variables,
    normalize,
    verify_laurent_run,
)
from .periodicity import (
    combine,
    primitive,
    solve_weight,
    weight_exists,
    weight_period,
)
from .poly import Poly, poly_gcd
from .quiver import Quiver, QuiverFormatError, WeightedQuiver, load_quiver
from .seqgen import (
    Monomial,
    RecurrenceSpec,
    SequenceRun,
    builtin,
    decompose_basis,
    integrality_scan,
    quiver_to_spec,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "DualScalar",
    "Monomial",
    "NotLaurent",
    "Poly",
    "Quiver",
    "QuiverFormatError",
    "QuiverSeqError",
    "RationalDualExpr",
    "RecurrenceSpec",
    "SequenceRun",
    "WeightedQuiver",
    "ZeroBodyError",
    "builtin",
    "combine",
    "decompose_basis",
    "evaluate",
    "format_scalar",
    "initial_variables",
    "integrality_scan",
    "load_quiver",
    "normalize",
    "poly_gcd",
    "primitive",
    "quiver_to_spec",
    "run",
    "solve_weight",
    "verify_laurent_run",
    "weight_exists",
    "weight_period",
]
