"""Posterior recursion and terminal cost functions on the simplex.

The pair (change happened?, which type?) is summarized by the posterior
vector ``pi = (pi_0, pi_1, ..., pi_M)`` where ``pi_0`` is the probability
that no change has happened yet and ``pi_i`` the probability that a change
of type i is in effect.  Conditioning on one more symbol sends ``pi`` to a
new point of the simplex through an explicit rational map; this module
implements that map, its unnormalized numerators, the induced predictive
distribution of the next symbol, and the terminal cost functions whose
minimum drives the stop/continue decision.

Everything is a pure function of plain float64 arrays, so posteriors are
just ndarrays of shape (M+1,).
"""

from __future__ import annotations

import functools

import numpy as np

from .model import ProblemSpec

__all__ = [
    "ImpossibleObservation",
    "initial_posterior",
    "d_vector",
    "update",
    "update_many",
    "predictive",
    "h_costs",
    "h_values_many",
]


class ImpossibleObservation(ValueError):
    """A symbol had zero likelihood under every component with posterior mass.

    Raised instead of propagating a 0/0: the model claims the observed data
    cannot occur, which means the model (not the data) needs attention.
    """


def initial_posterior(spec: ProblemSpec) -> np.ndarray:
    """Posterior before any observation: (1-p0, p0*nu_1, ..., p0*nu_M)."""
    pi = np.empty(spec.num_types + 1)
    pi[0] = 1.0 - spec.p0
    pi[1:] = spec.p0 * spec.nu
    return pi


@functools.lru_cache(maxsize=None)
def _stay(p: float, M: int, ndim: int) -> np.ndarray:
    """The factor of each coordinate in the part of pi·P that does not
    move, 1-p for pi_0 and 1 for each type, as a column that broadcasts
    over ``ndim - 1`` trailing axes."""
    stay = np.ones((M + 1,) + (1,) * (ndim - 1))
    stay[0] = 1.0 - p
    stay.setflags(write=False)
    return stay


def _step_weights(spec: ProblemSpec, pis: np.ndarray) -> np.ndarray:
    """One step of the change chain, pi·P, for posteriors of any leading shape.

    The no-change weight is (1-p)*pi_0: the change must not trigger this
    period.  The type-i weight is pi_i + (pi_0*p)*nu_i: either the change of
    type i was already in effect, or it triggers right now.  Multiplying by
    the symbol's density column gives the posterior numerators.

    The weights are computed into a C-ordered (M+1, ...) array, whose
    transpose is returned: for a batch, each operation runs along the
    posteriors rather than along a row of M+1.
    """
    cols = pis.T
    w = np.multiply(cols, _stay(spec.p, spec.num_types, pis.ndim), order="C")
    w[1:] += np.multiply.outer(spec.nu, cols[0] * spec.p)
    return w.T


def _row_min(x: np.ndarray) -> np.ndarray:
    """``np.minimum.reduce(x, axis=-1)`` of a 2-D x, in one pass along the
    columns of a column-major copy rather than one reduction per row.

    The values are equal; where +0.0 and -0.0 tie, either zero may come
    back, as from numpy's own vectorized reduction.
    """
    return np.minimum.reduce(np.asfortranarray(x), axis=-1)


def d_vector(spec: ProblemSpec, pi: np.ndarray, x: int) -> np.ndarray:
    """Unnormalized posterior numerators for observing symbol ``x``.

    Returns a vector of length M+2: the first M+1 entries are the joint
    weights of (next-state hypothesis i, symbol x) given the current
    posterior, and the last entry is their sum, which equals the predictive
    probability of ``x``.
    """
    num = _step_weights(spec, pi) * spec.f[:, x]
    return np.append(num, num.sum())


def update(spec: ProblemSpec, pi: np.ndarray, x: int) -> np.ndarray:
    """Condition the posterior on one more observed symbol.

    Raises:
        ValueError: if ``x`` is not an integer in 0..alphabet_size-1.
        ImpossibleObservation: if the symbol has zero predictive
            probability at ``pi``.
    """
    A = spec.alphabet_size
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < A:
        raise ValueError(f"symbol {x} outside alphabet 0..{A - 1}")
    num = _step_weights(spec, pi)
    num *= spec.f[:, x]
    total = np.add.reduce(num)
    if total <= 0.0:
        raise ImpossibleObservation(
            f"symbol {x} has zero likelihood at posterior {pi.tolist()}"
        )
    num /= total
    # Renormalize so that drift cannot accumulate over long streams.
    num /= np.add.reduce(num)
    return num


def update_many(spec: ProblemSpec, pis: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise posterior update for a batch of independent streams.

    :param pis: array of shape (n, M+1), one posterior per row.
    :param xs: integer symbols of shape (n,).
    :return: updated posteriors, shape (n, M+1).  Below eight coordinates
        it is the transpose of a C-ordered array: each coordinate's column
        is contiguous, and numpy sums the rows in one pass along the
        columns, adding left to right as it adds a row that short.

    Raises ValueError if a symbol is not an integer in 0..alphabet_size-1,
    and ImpossibleObservation if any row degenerates; either message names
    the first offending row.
    """
    xs, A = np.asarray(xs), spec.alphabet_size
    if xs.dtype.kind not in "iu" or xs.min(initial=0) < 0 or xs.max(initial=0) >= A:
        row = int(np.argmax((xs < 0) | (xs >= A))) if xs.dtype.kind in "iu" else 0
        raise ValueError(f"symbol {xs[row]} outside alphabet 0..{A - 1} (row {row})")
    num = _step_weights(spec, pis)
    # num is the transpose of a C-ordered array, so cols holds its columns
    cols = num.T
    cols *= spec.f.take(xs, axis=1)
    if num.shape[1] >= 8:
        # numpy adds rows of eight or more pairwise, but only contiguous ones
        num = np.ascontiguousarray(num)
    totals = np.add.reduce(num, axis=1, keepdims=True)
    dead = totals[:, 0] <= 0.0
    if dead.any():
        row = int(np.argmax(dead))
        raise ImpossibleObservation(
            f"symbol {int(xs[row])} has zero likelihood at posterior "
            f"{pis[row].tolist()} (row {row})"
        )
    num /= totals
    num /= np.add.reduce(num, axis=1, keepdims=True)
    return num


def predictive(spec: ProblemSpec, pi: np.ndarray) -> np.ndarray:
    """One-step-ahead distribution of the next symbol given posterior ``pi``."""
    return _step_weights(spec, pi) @ spec.f


def h_costs(spec: ProblemSpec, pi: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Expected terminal costs of each decision, their min, and the argmin.

    h_j(pi) = sum_i pi_i * a[i][j] is the posterior expected cost of
    announcing type j right now.  Ties in the minimum resolve to the
    smallest decision index so downstream behavior is deterministic.

    :return: (h_values of length M, min value, 0-based argmin in 0..M-1).
    """
    values = h_values_many(spec, pi[None, :])[0]
    j = int(np.argmin(values))
    return values, float(values[j]), j


def h_values_many(spec: ProblemSpec, pis: np.ndarray) -> np.ndarray:
    """Terminal cost vectors for a batch of posteriors, shape (n, M)."""
    return pis @ spec.a


def _announce(h_all: np.ndarray, stop) -> np.ndarray:
    """The terminal decision: where ``stop`` holds, announce the cheapest type
    (1-based, the smallest index on ties), else 0 to continue; int8 per row."""
    return np.multiply(h_all.argmin(axis=1) + 1, stop, dtype=np.int8, casting="unsafe")
