"""Steady-state pairwise entanglement of driven, collectively damped qubit ensembles.

The package evaluates the exact stationary state of N identical two-level
emitters under coherent drive, collective spontaneous emission and a common
pair dipole shift, reduces it to the two-qubit density matrix of an arbitrary
pair, and computes the Wootters concurrence, with parameter sweeps that
locate the collective transition signatures of large ensembles.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateNullSpace,
    DickepairError,
    GridTooCoarse,
    IndexRange,
    NumericalFailure,
    PairUndefined,
    SizeExceeded,
    ZeroDrive,
)
from .logcomplex import logsum_complex
from .params import DerivedParams, ParamBatch, SystemParams, derive_params
from .steady import (
    ExpectationSet,
    expectation,
    expectation_set,
)
from .pairwise import (
    ConcurrenceResult,
    PairEntries,
    concurrence,
    steady_pair_density,
    two_qubit_rho,
)
from .oracle import (
    build_liouvillian,
    density_expectation_set,
    oracle_pair_density,
    steady_state_null_space,
)
from .sweep import (
    AxisSpec,
    SweepResult,
    TransitionReport,
    detect_transition,
    find_max_concurrence,
    sweep,
)

__all__ = [
    "__version__",
    "SystemParams", "ParamBatch", "DerivedParams", "derive_params",
    "logsum_complex",
    "ExpectationSet", "expectation", "expectation_set",
    "ConcurrenceResult", "PairEntries", "two_qubit_rho", "steady_pair_density", "concurrence",
    "build_liouvillian", "steady_state_null_space", "density_expectation_set",
    "oracle_pair_density",
    "AxisSpec", "SweepResult", "TransitionReport", "sweep",
    "find_max_concurrence", "detect_transition",
    "DickepairError", "ZeroDrive", "IndexRange", "PairUndefined",
    "NumericalFailure", "SizeExceeded", "DegenerateNullSpace", "GridTooCoarse",
]
