"""Exact power sums and linear recurrences for hyperbolic Pascal triangles
on the {4,q} mosaics (q >= 5).

The pipeline: generate triangle rows exactly (triangle), compute power sums
and the state vector that advances row to row (sums), build the system
matrix and extract the scalar recurrence from its characteristic polynomial
(systembuilder, on the exact substrate in exactalg), then validate the
whole chain against brute-force row sums (verify), with the published
coefficient table in tables and the command line in cli.

The public API is those modules: import each name from the module that
defines it, as in ``from hptsums.systembuilder import recurrence_for_k``.
Importing the package itself loads none of them.
"""

__version__ = "0.1.0"
