"""
Augmented Lagrangian solver with a structured Sherman-Morrison
preconditioner for Hessians of the form M + rho V V'.
"""

from .alm import AlmConfig, AlmReport, alm_solve
from .auxprecond import KINDS, AuxPrecond, FactorizationError, build_aux
from .inner import InnerConfig, SpgResult, spg_solve, truncated_newton_step
from .krylov import IndefiniteOperatorError, KrylovReport, pcg, pminres
from .problems import NlpProblem, get_problem, problem_names
from .sparse import (MatrixMarketError, SparseSymmetricMatrix,
                     read_matrix_market, write_matrix_market)
from .structured import (ColumnSet, DenominatorBreakdownError,
                         StructuredPrecond, UpdateDecision, UpdateThresholds,
                         apply_rank1, assemble_B, build_column_set,
                         decide_update)

__version__ = "0.1.0"

__all__ = [
    "AlmConfig", "AlmReport", "alm_solve",
    "KINDS", "AuxPrecond", "FactorizationError", "build_aux",
    "InnerConfig", "SpgResult", "spg_solve", "truncated_newton_step",
    "IndefiniteOperatorError", "KrylovReport", "pcg", "pminres",
    "NlpProblem", "get_problem", "problem_names",
    "MatrixMarketError", "SparseSymmetricMatrix",
    "read_matrix_market", "write_matrix_market",
    "ColumnSet", "DenominatorBreakdownError", "StructuredPrecond",
    "UpdateDecision", "UpdateThresholds", "apply_rank1", "assemble_B",
    "build_column_set", "decide_update",
]
