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


def _step_weights(spec: ProblemSpec, pis: np.ndarray) -> np.ndarray:
    """One step of the change chain, pi·P, for posteriors of any leading shape.

    The no-change weight is (1-p)*pi_0: the change must not trigger this
    period.  The type-i weight is pi_i + pi_0*p*nu_i: either the change of
    type i was already in effect, or it triggers right now.  Multiplying by
    the symbol's density column gives the posterior numerators.
    """
    w = pis.astype(np.float64)
    w[..., 0] *= 1.0 - spec.p
    w[..., 1:] += pis[..., :1] * spec.p * spec.nu
    return w


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
        ImpossibleObservation: if the symbol has zero predictive
            probability at ``pi``.
    """
    num = _step_weights(spec, pi) * spec.f[:, x]
    total = num.sum()
    if total <= 0.0:
        raise ImpossibleObservation(
            f"symbol {x} has zero likelihood at posterior {pi.tolist()}"
        )
    out = num / total
    # Renormalize so that drift cannot accumulate over long streams.
    out /= out.sum()
    return out


def update_many(spec: ProblemSpec, pis: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise posterior update for a batch of independent streams.

    :param pis: array of shape (n, M+1), one posterior per row.
    :param xs: integer symbols of shape (n,).
    :return: updated posteriors, shape (n, M+1).

    Raises ImpossibleObservation if any row degenerates; the message names
    the first offending row.
    """
    num = _step_weights(spec, pis) * spec.f[:, xs].T
    totals = num.sum(axis=1)
    dead = totals <= 0.0
    if np.any(dead):
        row = int(np.argmax(dead))
        raise ImpossibleObservation(
            f"symbol {int(xs[row])} has zero likelihood at posterior "
            f"{pis[row].tolist()} (row {row})"
        )
    out = num / totals[:, None]
    out /= out.sum(axis=1, keepdims=True)
    return out


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
    return np.where(stop, h_all.argmin(axis=1) + 1, 0).astype(np.int8)
