"""Exact power sums and linear recurrences for hyperbolic Pascal triangles
on the {4,q} mosaics (q >= 5).

The pipeline: generate triangle rows exactly (triangle), compute power sums
and the state vector that advances row to row (sums), build the system
matrix and extract the scalar recurrence from its characteristic polynomial
(systembuilder, on the exact substrate in exactalg), then validate the
whole chain against brute-force row sums (verify).
"""
from .exactalg import QPoly
from .systembuilder import Recurrence, recurrence_for_k
from .triangle import TriangleParams, entry_rows, row_counts

__all__ = [
    "QPoly", "Recurrence", "recurrence_for_k",
    "TriangleParams", "entry_rows", "row_counts",
]

__version__ = "0.1.0"
