"""
Augmented Lagrangian solver with a structured Sherman-Morrison
preconditioner for Hessians of the form M + rho V V'.
"""

from .alm import AlmConfig, AlmReport, SettingError, alm_solve
from .auxprecond import KINDS, AuxPrecond, build_aux
from .inner import SpgResult, spg_solve, truncated_newton_step
from .krylov import IndefiniteOperatorError, KrylovReport, pcg, pminres
from .problems import NlpProblem, get_problem, problem_names
from .sparse import (MatrixMarketError, SparseSymmetricMatrix,
                     read_matrix_market, write_matrix_market)
from .structured import (ColumnSet, DenominatorBreakdownError,
                         StructuredPrecond, assemble_B, build_column_set,
                         decide_update)

__version__ = "0.1.0"

__all__ = [
    "AlmConfig", "AlmReport", "SettingError", "alm_solve",
    "KINDS", "AuxPrecond", "build_aux",
    "SpgResult", "spg_solve", "truncated_newton_step",
    "IndefiniteOperatorError", "KrylovReport", "pcg", "pminres",
    "NlpProblem", "get_problem", "problem_names",
    "MatrixMarketError", "SparseSymmetricMatrix",
    "read_matrix_market", "write_matrix_market",
    "ColumnSet", "DenominatorBreakdownError", "StructuredPrecond",
    "assemble_B", "build_column_set", "decide_update",
]
