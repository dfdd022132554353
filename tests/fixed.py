"""Stopping labels and spline fits at a slack or smoothing a test fixes.

The library works both out itself: ``value_iterate`` labels the nodes at
the table's last sweep change, and ``fit_spline`` picks the smoothing by
cross-validation.  Tests that need another value (the paper's zero-slack
nestedness, a curve at a given lambda) take it from here, where each step
is written out from its definition.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import changediag as cd
from changediag import boundary as B
from changediag.solver import transition_matrix


def labels_at(spec: cd.ProblemSpec, table: cd.ValueTable, slack: float) -> np.ndarray:
    """The action at each node of the table's grid: stop where
    h <= c*(1 - pi_0) + (T V) + ``slack``, announcing the first type of
    least terminal cost, else continue (0)."""
    grid = table.grid
    h_all = grid.nodes @ spec.a
    cont = spec.c * (1.0 - grid.nodes[:, 0]) + transition_matrix(spec, grid).matvec(table.values)
    stop = h_all.min(axis=1) <= cont + slack
    return np.where(stop, h_all.argmin(axis=1) + 1, 0).astype(np.int8)


def region_at(spec: cd.ProblemSpec, table: cd.ValueTable, slack: float) -> cd.StoppingRegion:
    """The table's stopping region, relabeled at ``slack``."""
    region = cd.extract_region(spec, table)
    return dataclasses.replace(region, labels=labels_at(spec, table, slack), stop_tol=slack)


def spline_at(beta: np.ndarray, r: np.ndarray, K: int, lam: float) -> cd.SplineBoundary:
    """The K-segment curve about corner 1 that ``fit_spline`` fits to the
    samples (beta, r), at the smoothing ``lam``."""
    breaks = np.linspace(beta.min(), beta.max(), K + 1)
    t = B._full_knots(breaks)
    phi = B._design(t, beta)
    coef = B._solve_penalized(phi, B._curvature_rows(t, breaks), r, lam)
    resid = r - phi @ coef
    return cd.SplineBoundary(1, breaks, coef, lam, float(np.sqrt(np.mean(resid * resid))))
