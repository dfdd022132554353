"""Monte Carlo execution of decision strategies on the generative model.

Ground truth per run: the change time comes from the zero-modified
geometric prior, the type from nu, and symbols are i.i.d. from the
pre-change density until the change takes effect, then from the type's
density.  Strategies watch only the running posterior (and the step
count), so the simulator advances the posterior recursion alongside the
stream, retires a run when its strategy stops, and prices the run both
ways: the realized cost c*(tau-theta)^+ plus the terminal charge, and the
posterior-form running cost that the optimality theory claims has the same
expectation.

Reproducibility: run r of a call seeded with s draws exclusively from the
Philox4x64-10 stream keyed (s, r) that ``np.random.Philox(key=[s, r])``
produces: uniform 0 picks the change time, uniform 1 the type, and
uniform 1+k the k-th symbol.  Philox is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): each block of four
64-bit words is a pure function of the key and the block counter.
``estimate_risk`` evaluates that function for all runs of a batch at
once, in windows of ``CHUNK // 4`` symbol uniforms per run, each
window after the first drawn for the runs still going.  Run k of seed s
therefore sees the same stream, bit for bit, in any batch and in any
worker thread.  The single-run ``Environment`` reads the same stream
through numpy's generator; it serves the library tour and the
benchmark's online replay.
The independent check of the batch is ``tests/oracles.ground_truth``,
which draws the stream with scalar numpy calls and none of this module.

Uniforms become ground truth, and runs become costs, in one batched place
each (``_draw_truth``, ``_draw_symbols``, ``_price``); ``Environment``
calls the first two on one row.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_N_MAX
from .boundary import SplineBoundary, fast_member, fast_member_many
from .model import ProblemSpec, _check_int
from .posterior import _announce, _row_min, h_values_many, initial_posterior, update_many
from .solver import ValueTable, interpolate_many

__all__ = [
    "Environment",
    "RiskEstimate",
    "Strategy",
    "TableStrategy",
    "SplineStrategy",
    "StopAfter",
    "PosteriorThreshold",
    "estimate_risk",
]

#: Symbol uniforms of one run that ``Environment`` draws at a time.  A
#: window of the batch holds a quarter as many, which most short runs never
#: exhaust.
CHUNK = 64

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: Rows per pass of the batched Philox kernel.
_PHILOX_ROWS = 1024


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    mid = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    low_mid = x_lo * m_hi + (mid & _LOW32)
    hi = x_hi * m_hi + (mid >> _SHIFT32) + (low_mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox4x64(seed: int, keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of key (seed, keys[i]) and counter (counters[j], 0, 0, 0).

    ``keys`` is a (1, rows) and ``counters`` a (blocks, 1) uint64 array;
    the result holds each block's four output words, shape (blocks, 4,
    rows), so that every word of a run's stream is a line along the runs.
    Broadcasting keeps the first rounds, whose words depend on the key or
    the counter alone, cheap.
    """
    c0 = counters
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = np.full((1, 1), seed, dtype=np.uint64)
    k1 = keys
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    shape = (counters.shape[0], keys.shape[1])
    return np.stack([np.broadcast_to(c, shape) for c in (c0, c1, c2, c3)], axis=1)


def _philox_uniforms(
    seed: int, run_indices: np.ndarray, start: int, count: int
) -> np.ndarray:
    """Uniforms start..start+count-1 of every run's stream, one row per run.

    Row i equals the last ``count`` of start+count calls of
    ``Generator(Philox(key=[seed, run_indices[i]])).random()``: block b
    of the stream is Philox4x64-10 of the counter b+1, and a double is
    the top 53 bits of a word times 2**-53.  Every block of a row range is
    one array computation; rows go _PHILOX_ROWS at a time so the working
    arrays stay in cache.  The result is the transpose of a C-ordered
    (count, rows) array: each uniform's column is contiguous.
    """
    keys = np.asarray(run_indices, dtype=np.uint64)[None, :]
    first, last = start // 4, (start + count - 1) // 4
    counters = np.arange(first + 1, last + 2, dtype=np.uint64)[:, None]
    out = np.empty((count, keys.shape[1]))
    for lo in range(0, keys.shape[1], _PHILOX_ROWS):
        rows = slice(lo, lo + _PHILOX_ROWS)
        words = _philox4x64(seed, keys[:, rows], counters)
        words = words.reshape(-1, words.shape[2])[start % 4 : start % 4 + count]
        out[:, rows] = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out.T


def _draw_truth(spec: ProblemSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Change times and types of runs from their two leading uniforms.

    ``u`` has one row per run.  theta inverts the change-time prior CDF at
    ``u[:, 0]``: 0 below p0, else the geometric quantile, saturated at 2**62
    so a tiny p cannot overflow int64.  mu is the first type whose
    cumulative prior exceeds ``u[:, 1]``.
    """
    # the geometric branch divides by zero when p0 = 1; np.where drops it
    with np.errstate(divide="ignore"):
        v = (u[:, 0] - spec.p0) / (1.0 - spec.p0)
        geo = np.clip(np.ceil(np.log1p(-v) / math.log1p(-spec.p)), 1, 2.0**62)
    theta = np.where(u[:, 0] < spec.p0, 0, geo).astype(np.int64)
    cum_nu = np.cumsum(spec.nu)
    mu = np.searchsorted(cum_nu, u[:, 1], side="right")
    return theta, np.minimum(mu, cum_nu.size - 1) + 1


def _draw_symbols(cum_f: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbol i inverts the cumulative density ``cum_f[rows[i]]`` at ``u[i]``:
    it is the number of the row's first A-1 cumulative values that are at
    most ``u[i]``, counted down the (A-1, n) table of those values.  The
    last value is left out, so a row whose sum rounds below ``u[i]`` still
    draws a symbol of the alphabet."""
    below = cum_f.T[:-1].take(rows, axis=1) <= u
    return np.add.reduce(below, axis=0, dtype=np.intp)


class Environment:
    """Lazily sampled ground truth for a single run.

    The generator is keyed (seed, run_index); symbols extend on demand and
    are stable under repeated access.
    """

    def __init__(self, spec: ProblemSpec, seed: int, run_index: int = 0):
        self.spec = spec
        self.seed = _check_int("seed", seed, 0, key=True)
        self.run_index = _check_int("run_index", run_index, 0, key=True)
        self._rng = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.run_index], dtype=np.uint64))
        )
        theta, mu = _draw_truth(spec, self._rng.random((1, 2)))
        self.theta, self.mu = int(theta[0]), int(mu[0])
        self._cum_f = np.cumsum(spec.f, axis=1)
        self._symbols: list[int] = []

    def symbol(self, n: int) -> int:
        """The n-th observation (1-based)."""
        _check_int("n", n, 1)
        while len(self._symbols) < n:
            steps = len(self._symbols) + 1 + np.arange(CHUNK)
            rows = np.where(self.theta <= steps, self.mu, 0)
            u = self._rng.random(CHUNK)
            self._symbols += _draw_symbols(self._cum_f, rows, u).tolist()
        return self._symbols[n - 1]


def _price(spec: ProblemSpec, theta, mu, tau, d) -> tuple[np.ndarray, np.ndarray]:
    """Delay cost c*(tau-theta)^+ and terminal cost of each run.

    The terminal cost is the false-alarm charge a[0, d-1] when the alarm
    precedes the change (tau < theta), else the diagnosis charge a[mu, d-1].
    """
    delay = spec.c * np.maximum(tau - theta, 0).astype(np.float64)
    return delay, np.where(tau < theta, spec.a[0, d - 1], spec.a[mu, d - 1])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class Strategy(ABC):
    """Maps (posterior, step count) to continue (None) or a 1-based type."""

    @abstractmethod
    def decide_many(self, spec: ProblemSpec, pis: np.ndarray, n: int) -> np.ndarray:
        """Decisions for a batch of posteriors: int8, 0 to continue."""

    def decide(self, spec: ProblemSpec, pi: np.ndarray, n: int) -> int | None:
        """One-row call of ``decide_many``: None to continue."""
        return int(self.decide_many(spec, pi[None, :], n)[0]) or None


class TableStrategy(Strategy):
    """Stop where the interpolated value meets the stopping cost.

    In the stopping region the solved value equals h, strictly below it in
    the continuation region, so h - V <= ``table.stop_tol`` recovers the
    region up to the table's own convergence slack.
    """

    def __init__(self, table: ValueTable):
        self.table = table

    # kept so the benchmark's traced run can wrap TableStrategy.decide itself
    def decide(self, spec, pi, n):
        return super().decide(spec, pi, n)

    def decide_many(self, spec, pis, n):
        values = interpolate_many(self.table.grid, self.table.values, pis)
        h_all = h_values_many(spec, pis)
        return _announce(h_all, _row_min(h_all) - values <= self.table.stop_tol)


class SplineStrategy(Strategy):
    """Stop by the compressed polar boundaries (2-type problems)."""

    def __init__(self, boundaries: dict[int, SplineBoundary]):
        missing = sorted({1, 2} - boundaries.keys())
        if missing:
            raise ValueError(f"no curve for type {missing[0]}")
        if any(sb.corner != j for j, sb in boundaries.items()):
            raise ValueError(
                f"curves keyed {sorted(boundaries)} are not the curves of types 1 and 2"
            )
        self.boundaries = boundaries

    def decide(self, spec, pi, n):
        return fast_member(spec, self.boundaries, pi)

    def decide_many(self, spec, pis, n):
        return fast_member_many(spec, self.boundaries, pis)


class StopAfter(Strategy):
    """Baseline: stop unconditionally once ``k`` observations are in."""

    def __init__(self, k: int):
        self.k = _check_int("k", k, 0)

    def decide_many(self, spec, pis, n):
        return _announce(h_values_many(spec, pis), n >= self.k)


class PosteriorThreshold(Strategy):
    """Baseline: stop once the change probability reaches ``threshold``."""

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold={self.threshold} must lie in [0, 1]")

    def decide_many(self, spec, pis, n):
        stop = 1.0 - pis[:, 0] >= self.threshold
        return _announce(h_values_many(spec, pis), stop)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class RiskEstimate:
    """Per-run outcomes of a Monte Carlo batch plus summary accessors."""

    spec: ProblemSpec = field(repr=False)
    runs: int
    seed: int
    theta: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    realized: np.ndarray
    posterior_form: np.ndarray
    capped: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.realized.mean())

    @property
    def std_error(self) -> float:
        if self.runs < 2:
            return 0.0
        return float(self.realized.std(ddof=1) / math.sqrt(self.runs))

    @property
    def cap_rate(self) -> float:
        return float(self.capped.mean())

    def breakdown(self) -> dict[str, float]:
        """Mean cost split into delay, false-alarm, and isolation terms."""
        delay, terminal = _price(self.spec, self.theta, self.mu, self.tau, self.d)
        early = self.tau < self.theta
        return {
            "delay": float(delay.mean()),
            "false_alarm": float(np.where(early, terminal, 0.0).mean()),
            "false_isolation": float(np.where(early, 0.0, terminal).mean()),
        }

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "seed": self.seed,
            "mean": self.mean,
            "std_error": self.std_error,
            "breakdown": self.breakdown(),
            "cap_rate": self.cap_rate,
        }


def _simulate_block(
    spec: ProblemSpec,
    strategy: Strategy,
    runs: int,
    seed: int,
    n_max: int,
    run_offset: int,
) -> tuple[np.ndarray, ...]:
    """Vectorized lockstep simulation of runs [offset, offset+runs).

    Step n reads symbol uniform n % size of the current window.  The
    posteriors lie in columns, one per coordinate, so that a step's
    operations run along the runs still going rather than along a short
    row.
    """
    size = CHUNK // 4
    window = _philox_uniforms(seed, run_offset + np.arange(runs), 0, 2 + size)
    theta, mu = _draw_truth(spec, window)
    window = window[:, 2:]
    cum_f = np.cumsum(spec.f, axis=1)

    tau = np.zeros(runs, dtype=np.int64)
    d = np.zeros(runs, dtype=np.int64)
    capped = np.zeros(runs, dtype=bool)
    post_form = np.zeros(runs)

    # The state of the runs still going, row k for run ``active[k]``; rows
    # leave together when their runs stop.
    active = np.arange(runs)
    pis = initial_posterior(spec)[:, None].repeat(runs, axis=1).T
    running = np.zeros(runs)
    change, kind = theta, mu
    window_row = np.arange(runs)
    n = 0
    while active.size:
        dec = strategy.decide_many(spec, pis, n)
        if n >= n_max:
            # the cap announces the cheapest type wherever the strategy continues
            capped[active] = dec == 0
            dec = np.where(dec == 0, _announce(h_values_many(spec, pis), True), dec)
        stopping = dec > 0
        if stopping.any():
            # rows by index and coordinates by column: no boolean row masks
            out, keep = stopping.nonzero()[0], (~stopping).nonzero()[0]
            done, dec = active.take(out), dec.take(out)
            tau[done], d[done] = n, dec
            h_done = h_values_many(spec, pis.T.take(out, axis=1).T)
            post_form[done] = running.take(out) + h_done[np.arange(out.size), dec - 1]
            active, running, change, kind, window_row = (
                a.take(keep) for a in (active, running, change, kind, window_row)
            )
            pis = pis.T.take(keep, axis=1).T
        if active.size == 0:
            break

        running += spec.c * (1.0 - pis[:, 0])

        if n and n % size == 0:
            window = _philox_uniforms(seed, run_offset + active, 2 + n, size)
            window_row = np.arange(active.size)
        us = window[:, n % size].take(window_row)
        rows = np.where(change <= n + 1, kind, 0)
        pis = update_many(spec, pis, _draw_symbols(cum_f, rows, us))
        n += 1

    delay, terminal = _price(spec, theta, mu, tau, d)
    return theta, mu, tau, d, delay + terminal, post_form, capped


def estimate_risk(
    spec: ProblemSpec,
    strategy: Strategy,
    runs: int,
    seed: int,
    n_max: int = DEFAULT_N_MAX,
    threads: int = 1,
) -> RiskEstimate:
    """Monte Carlo Bayes-risk estimate over ``runs`` independent runs.

    The run set splits into contiguous blocks, one per worker; because
    every run has its own keyed substream, the estimate is bit-identical
    for any thread count.
    """
    runs = _check_int("runs", runs, 1)
    seed = _check_int("seed", seed, 0, key=True)
    n_max = _check_int("n_max", n_max, 0)
    threads = _check_int("threads", threads, 1)
    workers = min(threads, runs)
    bounds = np.linspace(0, runs, workers + 1).astype(int)
    jobs = [
        (int(lo), int(hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    if len(jobs) == 1:
        blocks = [_simulate_block(spec, strategy, runs, seed, n_max, 0)]
    else:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [
                pool.submit(
                    _simulate_block, spec, strategy, count, seed, n_max, offset
                )
                for offset, count in jobs
            ]
            blocks = [f.result() for f in futures]

    theta, mu, tau, d, realized, post_form, capped = (
        np.concatenate(parts) for parts in zip(*blocks)
    )
    return RiskEstimate(
        spec=spec,
        runs=runs,
        seed=seed,
        theta=theta,
        mu=mu,
        tau=tau,
        d=d,
        realized=realized,
        posterior_form=post_form,
        capped=capped,
    )
