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
64-bit words is a pure function of the key and the block counter.  The
single-run ``Environment`` reads the stream through a numpy generator;
``estimate_risk`` evaluates the same function for all runs of a batch at
once, 64 symbol uniforms per run at a time.  Run k of seed s therefore
sees the same stream, bit for bit, whether it executes alone, in any
batch, or in any worker thread.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .boundary import SplineBoundary, fast_member, fast_member_many
from .model import ProblemSpec
from .posterior import h_costs, h_values_many, initial_posterior, update, update_many
from .solver import ValueTable, interpolate_many

__all__ = [
    "Environment",
    "SimulationRecord",
    "RiskEstimate",
    "Strategy",
    "TableStrategy",
    "SplineStrategy",
    "StopAfter",
    "PosteriorThreshold",
    "run_strategy",
    "estimate_risk",
]

#: Symbol uniforms are drawn from each run's stream in blocks of this size.
CHUNK = 64

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: Rows per pass of the batched Philox kernel.
_PHILOX_ROWS = 1024

#: Default cap on observations per run; hitting it flags the run.
DEFAULT_N_MAX = 100_000


def _theta_from_uniform(spec: ProblemSpec, u: float) -> int:
    """Invert the change-time prior CDF at ``u`` in [0, 1)."""
    if u < spec.p0:
        return 0
    v = (u - spec.p0) / (1.0 - spec.p0)
    return max(1, math.ceil(math.log1p(-v) / math.log1p(-spec.p)))


def _pick(cum: np.ndarray, u: float) -> int:
    """Index of the first cumulative bin exceeding ``u``."""
    return min(int((cum <= u).sum()), cum.size - 1)


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

    ``keys`` is a (rows, 1) and ``counters`` a (1, blocks) uint64 array;
    the result holds each block's four output words, shape (rows, blocks, 4).
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
    shape = (keys.shape[0], counters.shape[1])
    return np.stack([np.broadcast_to(c, shape) for c in (c0, c1, c2, c3)], axis=-1)


def _philox_uniforms(
    seed: int, run_indices: np.ndarray, start: int, count: int
) -> np.ndarray:
    """Uniforms start..start+count-1 of every run's stream, one row per run.

    Row i equals the last ``count`` of start+count calls of
    ``Generator(Philox(key=[seed, run_indices[i]])).random()``: block b
    of the stream is Philox4x64-10 of the counter b+1, and a double is
    the top 53 bits of a word times 2**-53.  Every block of a row range is
    one array computation; rows go _PHILOX_ROWS at a time so the working
    arrays stay in cache.
    """
    keys = np.asarray(run_indices, dtype=np.uint64)[:, None]
    first, last = start // 4, (start + count - 1) // 4
    counters = np.arange(first + 1, last + 2, dtype=np.uint64)[None, :]
    out = np.empty((keys.shape[0], count))
    for lo in range(0, keys.shape[0], _PHILOX_ROWS):
        rows = slice(lo, lo + _PHILOX_ROWS)
        words = _philox4x64(seed, keys[rows], counters)
        words = words.reshape(words.shape[0], -1)[:, start % 4 : start % 4 + count]
        out[rows] = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out


class Environment:
    """Lazily sampled ground truth for a single run.

    The generator is keyed (seed, run_index); symbols extend on demand and
    are stable under repeated access.
    """

    def __init__(self, spec: ProblemSpec, seed: int, run_index: int = 0):
        if seed < 0 or run_index < 0:
            raise ValueError("seed and run_index must be nonnegative")
        self.spec = spec
        self.seed = seed
        self.run_index = run_index
        self._rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, run_index], dtype=np.uint64))
        )
        self.theta = _theta_from_uniform(spec, self._rng.random())
        self.mu = _pick(np.cumsum(spec.nu), self._rng.random()) + 1
        self._cum_f = np.cumsum(spec.f, axis=1)
        self._uniforms: list[np.ndarray] = []
        self._symbols: list[int] = []

    def symbol(self, n: int) -> int:
        """The n-th observation (1-based)."""
        if n < 1:
            raise ValueError(f"observation index {n} must be >= 1")
        while len(self._symbols) < n:
            step = len(self._symbols) + 1
            chunk, offset = divmod(step - 1, CHUNK)
            while len(self._uniforms) <= chunk:
                self._uniforms.append(self._rng.random(CHUNK))
            u = float(self._uniforms[chunk][offset])
            row = self.mu if self.theta <= step else 0
            self._symbols.append(_pick(self._cum_f[row], u))
        return self._symbols[n - 1]


@dataclass
class SimulationRecord:
    """Outcome of one run: ground truth, alarm, decision, and both costs."""

    theta: int
    mu: int
    observations: list[int]
    tau: int
    d: int
    realized_cost: float
    posterior_cost: float
    capped: bool
    posterior_path: list[np.ndarray] | None = None


def _realized_cost(spec: ProblemSpec, theta: int, mu: int, tau: int, d: int) -> float:
    delay = spec.c * max(tau - theta, 0)
    if tau < theta:
        return delay + float(spec.a[0, d - 1])
    return delay + float(spec.a[mu, d - 1])


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
        cols = h_all.argmin(axis=1)
        stop = h_all.min(axis=1) - values <= self.table.stop_tol
        return np.where(stop, cols + 1, 0).astype(np.int8)


class SplineStrategy(Strategy):
    """Stop by the compressed polar boundaries (2-type problems)."""

    def __init__(self, boundaries: dict[int, SplineBoundary]):
        self.boundaries = boundaries

    def decide(self, spec, pi, n):
        return fast_member(spec, self.boundaries, pi)

    def decide_many(self, spec, pis, n):
        return fast_member_many(spec, self.boundaries, pis)


class StopAfter(Strategy):
    """Baseline: stop unconditionally once ``k`` observations are in."""

    def __init__(self, k: int):
        self.k = int(k)

    def decide_many(self, spec, pis, n):
        if n < self.k:
            return np.zeros(pis.shape[0], dtype=np.int8)
        return (h_values_many(spec, pis).argmin(axis=1) + 1).astype(np.int8)


class PosteriorThreshold(Strategy):
    """Baseline: stop once the change probability reaches ``threshold``."""

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold={self.threshold} must lie in [0, 1]")

    def decide_many(self, spec, pis, n):
        stop = 1.0 - pis[:, 0] >= self.threshold
        cols = h_values_many(spec, pis).argmin(axis=1)
        return np.where(stop, cols + 1, 0).astype(np.int8)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_strategy(
    spec: ProblemSpec,
    strategy: Strategy,
    env: Environment,
    n_max: int = DEFAULT_N_MAX,
    record_path: bool = False,
) -> SimulationRecord:
    """Play one run to its alarm (reference single-stream loop).

    The strategy is consulted before the first observation, so tau = 0 is a
    possible outcome.  At ``n_max`` the run is forced to stop with the
    cheapest terminal decision and flagged.
    """
    pi = initial_posterior(spec)
    path = [pi.copy()] if record_path else None
    observations: list[int] = []
    running = 0.0
    n = 0
    capped = False
    while True:
        d = strategy.decide(spec, pi, n)
        if d is not None:
            break
        if n >= n_max:
            capped = True
            _, _, col = h_costs(spec, pi)
            d = col + 1
            break
        running += spec.c * (1.0 - pi[0])
        x = env.symbol(n + 1)
        observations.append(x)
        pi = update(spec, pi, x)
        if record_path:
            path.append(pi.copy())
        n += 1
    h_vals, _, _ = h_costs(spec, pi)
    return SimulationRecord(
        theta=env.theta,
        mu=env.mu,
        observations=observations,
        tau=n,
        d=int(d),
        realized_cost=_realized_cost(spec, env.theta, env.mu, n, int(d)),
        posterior_cost=running + float(h_vals[int(d) - 1]),
        capped=capped,
        posterior_path=path,
    )


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
        delay = self.spec.c * np.maximum(self.tau - self.theta, 0)
        false_alarm = np.where(
            self.tau < self.theta, self.spec.a[0, self.d - 1], 0.0
        )
        isolation = np.where(
            self.tau >= self.theta, self.spec.a[self.mu, self.d - 1], 0.0
        )
        return {
            "delay": float(delay.mean()),
            "false_alarm": float(false_alarm.mean()),
            "false_isolation": float(isolation.mean()),
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
    """Vectorized lockstep simulation of runs [offset, offset+runs)."""
    window = _philox_uniforms(seed, run_offset + np.arange(runs), 0, 2 + CHUNK)
    theta = np.array(
        [_theta_from_uniform(spec, u) for u in window[:, 0].tolist()], dtype=np.int64
    )
    cum_nu = np.cumsum(spec.nu)
    mu = np.searchsorted(cum_nu, window[:, 1], side="right")
    mu = np.minimum(mu, cum_nu.size - 1) + 1
    window = window[:, 2:]
    cum_f = np.cumsum(spec.f, axis=1)

    pis = np.tile(initial_posterior(spec), (runs, 1))
    tau = np.zeros(runs, dtype=np.int64)
    d = np.zeros(runs, dtype=np.int64)
    capped = np.zeros(runs, dtype=bool)
    running = np.zeros(runs)
    post_form = np.zeros(runs)

    active = np.arange(runs)
    window_row = np.arange(runs)
    n = 0
    while active.size:
        dec = strategy.decide_many(spec, pis[active], n)
        stopping = dec > 0
        if np.any(stopping):
            done = active[stopping]
            tau[done] = n
            d[done] = dec[stopping]
            h_done = h_values_many(spec, pis[done])
            post_form[done] = running[done] + h_done[
                np.arange(done.size), d[done] - 1
            ]
            active = active[~stopping]
        if active.size == 0:
            break
        if n >= n_max:
            h_rest = h_values_many(spec, pis[active])
            tau[active] = n
            d[active] = h_rest.argmin(axis=1) + 1
            capped[active] = True
            post_form[active] = running[active] + h_rest.min(axis=1)
            break

        running[active] += spec.c * (1.0 - pis[active, 0])

        if n and n % CHUNK == 0:
            window = _philox_uniforms(seed, run_offset + active, 2 + n, CHUNK)
            window_row[active] = np.arange(active.size)
        us = window[window_row[active], n % CHUNK]
        post = theta[active] <= n + 1
        rows = np.where(post, mu[active], 0)
        symbols = np.minimum(
            (cum_f[rows] <= us[:, None]).sum(axis=1), spec.alphabet_size - 1
        )
        pis[active] = update_many(spec, pis[active], symbols)
        n += 1

    realized = spec.c * np.maximum(tau - theta, 0).astype(np.float64)
    realized += np.where(tau < theta, spec.a[0, d - 1], spec.a[mu, d - 1])
    return theta, mu, tau, d, realized, post_form, capped


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
    if runs < 1:
        raise ValueError(f"runs={runs} must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed={seed} must be in [0, 2**64)")
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be nonnegative")
    if threads < 1:
        raise ValueError(f"threads={threads} must be at least 1")
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
