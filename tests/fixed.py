"""Stopping labels and spline fits at a slack or smoothing a test fixes,
and the two online stop rules without their bounds.

The library works both out itself: ``value_iterate`` labels the nodes at
the table's last sweep change, and ``fit_spline`` picks the smoothing by
cross-validation.  Tests that need another value (the paper's zero-slack
nestedness, a curve at a given lambda) take it from here, where each step
is written out from its definition.  ``TableStrategy`` and
``fast_member_many`` answer most posteriors from a bound; ``table_rule``
and ``spline_rule`` decide every row the long way, from the interpolation
and polar kernels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import changediag as cd
from changediag import boundary as B
from changediag.posterior import _announce, _row_min, h_values_many
from changediag.solver import interpolate_many, transition_matrix


def table_rule(spec: cd.ProblemSpec, table: cd.ValueTable, pis: np.ndarray) -> np.ndarray:
    """Stop where h - V <= ``table.stop_tol``, V interpolated at every row,
    announcing the first type of least terminal cost; else 0."""
    h_all = h_values_many(spec, pis)
    values = interpolate_many(table.grid, table.values, pis)
    return _announce(h_all, _row_min(h_all) - values <= table.stop_tol)


def spline_rule(spec: cd.ProblemSpec, boundaries: dict, pis: np.ndarray) -> np.ndarray:
    """Stop where the corner radius of a row, seen from the corner of its
    cheapest decision, is at most that corner's curve (or 0) at its angle,
    announcing that decision; else 0."""
    h_all = h_values_many(spec, pis)
    second = h_all[:, 1] < h_all[:, 0]
    stop = np.zeros(pis.shape[0], dtype=bool)
    for corner, picked in ((1, ~second), (2, second)):
        rows = picked.nonzero()[0]
        if rows.size:
            r, beta = B._polar(pis[rows], corner)
            stop[rows] = r <= np.maximum(B.evaluate_boundary(boundaries[corner], beta), 0.0)
    return np.where(stop, 1 + second, 0).astype(np.int8)


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
