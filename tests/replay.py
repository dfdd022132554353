"""Scalar replay of one Monte Carlo run, the reference for batch rows.

Run k of seed s of ``estimate_risk`` is rebuilt here step by step: the
ground truth and symbols come from ``oracles.ground_truth``, the
posterior from the scalar ``changediag.update``, and each decision from
the strategy's one-row ``decide``.  The run is priced by the cost written
out, c*(tau-theta)^+ + a[row, d-1], with row 0 for an alarm before the
change.  None of the simulator's own truth, symbol or pricing code runs,
so a row that equals its replay is checked by independent code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import changediag as cd
from changediag.simulator import DEFAULT_N_MAX

import oracles


@dataclass
class Run:
    theta: int
    mu: int
    observations: list[int]
    tau: int
    d: int
    cost: float
    posterior_cost: float
    capped: bool


def replay(spec, strategy, seed: int, run_index: int, n_max: int = DEFAULT_N_MAX) -> Run:
    """Play run ``run_index`` of ``seed`` to its alarm, or to the cap at ``n_max``.

    The strategy is asked before each observation, so tau = 0 is possible.
    At the cap a run whose rule still continues announces its cheapest type
    and is flagged.
    """
    theta, mu, symbols = oracles.ground_truth(spec, seed, run_index, 64)
    pi = cd.initial_posterior(spec)
    observations: list[int] = []
    running = 0.0
    while (d := strategy.decide(spec, pi, len(observations))) is None:
        n = len(observations)
        if n >= n_max:
            break
        if n == len(symbols):
            symbols = oracles.ground_truth(spec, seed, run_index, 2 * n)[2]
        running += spec.c * (1.0 - pi[0])
        observations.append(symbols[n])
        pi = cd.update(spec, pi, symbols[n])
    h = pi @ spec.a
    capped = d is None
    if capped:
        d = int(np.argmin(h)) + 1
    tau = len(observations)
    row = 0 if tau < theta else mu
    cost = spec.c * max(tau - theta, 0) + spec.a[row, d - 1]
    return Run(theta, mu, observations, tau, d, cost, running + h[d - 1], capped)
