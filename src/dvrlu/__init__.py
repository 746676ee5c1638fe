"""Exact linear algebra with precision tracking over discrete valuation rings.

Elements are p-adic integers or power series known to finite precision; the
package computes LU-type factorizations whose output precision is certified,
not merely observed.  See the README for the layout; valuation statistics
live in :mod:`dvrlu.stats`.
"""

from .config import Backend, DvrConfig
from .element import PrecElem
from .errors import (
    AmbiguousValuation,
    CoincidentPoints,
    DegenerateDecomposition,
    DegenerateInput,
    DivisionByUnknownZero,
    DvrError,
    ExhaustedRetries,
    InsufficientLift,
    NotSorted,
)
from .lu_fast import matmul, recursive_lv
from .lu_stable import (
    BlockL,
    LvOutput,
    StableL,
    VijProfile,
    block_l,
    block_l_unitlower,
    hermite_from_lv,
    lift_recompute_l,
    lower_triangular_inverse,
    lv_decomposition,
    lv_to_l,
    naive_gauss_l,
    precision_loss,
    stable_l,
    vij_statistics,
)
from .matrix import PrecMatrix, random_matrix
from .series import SeriesElem
from .sheaf import (
    GlobalBasis,
    SheafInstance,
    SheafPoint,
    VerifyReport,
    random_instance,
    solve_sheaf,
    verify_local_equivalence,
)
from .simul import (
    SimulFailure,
    SimulResult,
    attempt_simultaneous,
    required_v,
    simultaneous_block_lu,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousValuation",
    "Backend",
    "BlockL",
    "CoincidentPoints",
    "DegenerateDecomposition",
    "DegenerateInput",
    "DivisionByUnknownZero",
    "DvrConfig",
    "DvrError",
    "ExhaustedRetries",
    "GlobalBasis",
    "InsufficientLift",
    "LvOutput",
    "NotSorted",
    "PrecElem",
    "PrecMatrix",
    "SeriesElem",
    "SheafInstance",
    "SheafPoint",
    "SimulFailure",
    "SimulResult",
    "StableL",
    "VerifyReport",
    "VijProfile",
    "attempt_simultaneous",
    "block_l",
    "block_l_unitlower",
    "hermite_from_lv",
    "lift_recompute_l",
    "lower_triangular_inverse",
    "lv_decomposition",
    "lv_to_l",
    "matmul",
    "naive_gauss_l",
    "precision_loss",
    "random_instance",
    "random_matrix",
    "recursive_lv",
    "required_v",
    "simultaneous_block_lu",
    "solve_sheaf",
    "stable_l",
    "verify_local_equivalence",
    "vij_statistics",
]
