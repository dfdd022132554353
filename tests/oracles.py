"""Reference computations used to pin expected values in the tests.

Everything here works directly from the generative model: explicit sums
over the change time, the change type, and complete observation paths,
and scalar draws from numpy's own Philox generator, plus scipy's linear
programming for the largest stopping cost, a breadth-first search for
connected components of lattice node sets, and plane geometry for the
polar coordinates of boundary curves.  Nothing calls the package's
posterior recursion, solver, region checks, boundary code or simulator,
so agreement between these oracles and the library is a real cross-check.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Mapping

import numpy as np

from changediag import ProblemSpec


def theta_pmf(spec: ProblemSpec, t: int) -> float:
    if t == 0:
        return spec.p0
    return (1.0 - spec.p0) * (1.0 - spec.p) ** (t - 1) * spec.p


def _first_above(probs, u: float) -> int:
    """Index of the first running sum of ``probs`` above ``u`` (else the last)."""
    total = 0.0
    for i, q in enumerate(probs):
        total += float(q)
        if u < total:
            return i
    return len(probs) - 1


def ground_truth(
    spec: ProblemSpec, seed: int, run_index: int, n: int
) -> tuple[int, int, list[int]]:
    """Change time, type and first ``n`` symbols of run (seed, run_index).

    Reads the run's stream one uniform at a time from numpy's
    ``Generator(Philox(key=[seed, run_index]))``: uniform 0 inverts the
    change-time prior, uniform 1 the type prior, and uniform 1+k the
    density of the k-th symbol's regime (the type once k >= theta).
    """
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, run_index], dtype=np.uint64))
    )
    u = [gen.random() for _ in range(2 + n)]
    if u[0] < spec.p0:
        theta = 0
    else:
        v = (u[0] - spec.p0) / (1.0 - spec.p0)
        theta = max(1, math.ceil(math.log1p(-v) / math.log1p(-spec.p)))
    mu = _first_above(spec.nu, u[1]) + 1
    symbols = [
        _first_above(spec.f[mu if theta <= k else 0], u[1 + k])
        for k in range(1, n + 1)
    ]
    return theta, mu, symbols


def path_posterior(spec: ProblemSpec, path: list[int]) -> np.ndarray:
    """Posterior over (no change yet, type 1, ..., type M) given a path.

    Marginalizes the exact joint law: a change at time t <= n makes symbols
    before t pre-change and the rest post-change (a change at 0 behaves
    like one at 1), while all change times beyond n collapse into a single
    pre-change term with the geometric tail mass.
    """
    n = len(path)
    M = spec.num_types
    f = spec.f
    pre = np.concatenate([[1.0], np.cumprod([f[0, x] for x in path])])
    joint = np.zeros(M + 1)
    joint[0] = (1.0 - spec.p0) * (1.0 - spec.p) ** n * pre[n]
    for i in range(1, M + 1):
        post_tail = 1.0
        acc = theta_pmf(spec, 0) if n == 0 else 0.0
        for t in range(n, 0, -1):
            post_tail *= f[i, path[t - 1]]
            weight = theta_pmf(spec, t) + (theta_pmf(spec, 0) if t == 1 else 0.0)
            acc += weight * pre[t - 1] * post_tail
        joint[i] = spec.nu[i - 1] * acc
    return joint / joint.sum()


def path_probability(spec: ProblemSpec, path: list[int]) -> float:
    """Exact unconditional probability of observing the symbol path."""
    n = len(path)
    f = spec.f
    pre = np.concatenate([[1.0], np.cumprod([f[0, x] for x in path])])
    total = (1.0 - spec.p0) * (1.0 - spec.p) ** n * pre[n]
    for i in range(1, spec.num_types + 1):
        post_tail = 1.0
        acc = theta_pmf(spec, 0) if n == 0 else 0.0
        for t in range(n, 0, -1):
            post_tail *= f[i, path[t - 1]]
            weight = theta_pmf(spec, t) + (theta_pmf(spec, 0) if t == 1 else 0.0)
            acc += weight * pre[t - 1] * post_tail
        total += spec.nu[i - 1] * acc
    return float(total)


def horizon_value(spec: ProblemSpec, H: int) -> float:
    """Optimal expected cost when at most H observations may be taken.

    Exhaustive backward induction over the full path tree.  At each prefix
    the posterior and the one-step predictive come from the joint-law sums
    above, and the value is the cheaper of stopping now or paying the
    expected delay and continuing.
    """

    def value(path: list[int], depth: int) -> float:
        pi = path_posterior(spec, path)
        h = (pi @ spec.a).min()
        if depth == 0:
            return float(h)
        p_here = path_probability(spec, path)
        cont = spec.c * (1.0 - pi[0])
        for x in range(spec.alphabet_size):
            p_next = path_probability(spec, path + [x])
            if p_next > 0.0:
                cont += (p_next / p_here) * value(path + [x], depth - 1)
        return float(min(h, cont))

    return value([], H)


def sprt_value(q: float, c: float, a, l0):
    """Exact optimal cost of the two-hypothesis test at the log-odds
    ``l0`` = log(pi_1 / pi_2), a number or an array of them (+-inf at the
    corners of the face pi_0 = 0).

    The change has already happened; each observation costs ``c`` and is
    binary, with f_1 = (q, 1 - q) and f_2 = (1 - q, q); announcing type j
    under hypothesis i costs ``a[i][j - 1]`` (the model's cost matrix, whose
    row 0 does not enter).  A symbol moves the log-odds by +-d,
    d = log(q / (1 - q)), so from l0 the posterior walks on l0 + k d for
    integer k.  Where stopping costs at most c it is optimal, since going on
    costs c at least; those states bound the walk, and value iteration from
    the stopping cost over the states between them, each iterate clamped by
    the one before, falls to the fixed point and ends when an iteration
    changes nothing.
    """
    a = np.asarray(a, dtype=np.float64)[1:]
    l0 = np.asarray(l0, dtype=np.float64)
    d = math.log(q / (1.0 - q))

    def walk(k):
        # posterior (pi_1, pi_2) at log-odds l0 + k d, and its stopping cost
        with np.errstate(over="ignore"):
            l = l0 + k * d
            pi1, pi2 = 1.0 / (1.0 + np.exp(-l)), 1.0 / (1.0 + np.exp(l))
        return pi1, pi2, np.minimum(pi1 * a[0, 0] + pi2 * a[1, 0], pi1 * a[0, 1] + pi2 * a[1, 1])

    K = 1
    while (walk(-K)[2] > c).any() or (walk(K)[2] > c).any():
        K += 1
    pi1, pi2, h = walk(np.arange(-K, K + 1).reshape((-1,) + (1,) * l0.ndim))
    up = pi1[1:-1] * q + pi2[1:-1] * (1.0 - q)  # symbol 0 moves k up by one
    V = h.copy()
    while True:
        new = np.minimum(h[1:-1], c + up * V[2:] + (1.0 - up) * V[:-2])
        np.minimum(new, V[1:-1], out=new)
        if np.array_equal(new, V[1:-1]):
            return V[K]
        V[1:-1] = new


def stopping_cost_sup_lp(a: np.ndarray) -> float:
    """max over the simplex of min_j pi·a[:, j], as the linear program
    max t subject to t <= pi·a[:, j] for every j, pi >= 0 and sum(pi) = 1."""
    from scipy.optimize import linprog

    M = a.shape[1]
    # variables (pi_0 .. pi_M, t); linprog minimises, so minimise -t
    res = linprog(
        np.r_[np.zeros(M + 1), -1.0],
        A_ub=np.hstack([-a.T, np.ones((M, 1))]),
        b_ub=np.zeros(M),
        A_eq=np.r_[np.ones(M + 1), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * (M + 1) + [(None, None)],
    )
    assert res.success, res.message
    return float(-res.fun)


#: The 2-type simplex as the equilateral triangle of unit height, one
#: vertex per row: a posterior's coordinate pi_k is its distance to the
#: side opposite vertex k.
TRIANGLE = np.array([[0.0, 0.0], [2.0 / math.sqrt(3.0), 0.0], [1.0 / math.sqrt(3.0), 1.0]])


def _polar_frame(corner: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors at vertex ``corner`` (1 or 2): along its side to the
    vertex that is neither it nor corner - 1, and normal to that side
    towards vertex corner - 1.  The side is where pi_{corner-1} = 0, so
    the polar angle is the angle from the first vector."""
    origin = TRIANGLE[corner]
    along = TRIANGLE[3 - corner - (corner - 1)] - origin
    along /= np.linalg.norm(along)
    normal = TRIANGLE[corner - 1] - origin
    normal -= (normal @ along) * along
    return along, normal / np.linalg.norm(normal)


def polar_point(pi: np.ndarray, corner: int) -> tuple[float, float]:
    """Radius and angle of the 2-type posterior ``pi`` seen from vertex
    ``corner``: the length of the ray to it, and the ray's angle from the
    side the vertex shares with the third vertex."""
    ray = np.asarray(pi, dtype=np.float64) @ TRIANGLE - TRIANGLE[corner]
    along, normal = _polar_frame(corner)
    return float(np.hypot(*ray)), math.atan2(float(ray @ normal), float(ray @ along))


def polar_inverse(r: float, beta: float, corner: int) -> np.ndarray:
    """The 2-type posterior at radius ``r`` and angle ``beta`` from vertex
    ``corner``: the point reached along the ray, in barycentric
    coordinates by one linear solve."""
    along, normal = _polar_frame(corner)
    point = TRIANGLE[corner] + r * (math.cos(beta) * along + math.sin(beta) * normal)
    return np.linalg.solve(np.vstack([TRIANGLE.T, np.ones(3)]), np.r_[point, 1.0])


def lattice_index(lattice: np.ndarray) -> dict[tuple[int, ...], int]:
    """Row number of each row of ``lattice``, keyed by the row as a tuple."""
    return {tuple(row): k for k, row in enumerate(lattice.tolist())}


def component_count(lattice: np.ndarray, mask: np.ndarray) -> int:
    """Connected components of the masked rows of ``lattice`` (integer
    simplex coordinates, one node per row), two nodes being adjacent when
    they differ by a step e_a - e_b; breadth-first search over coordinates."""
    nodes = {tuple(row) for row, keep in zip(lattice.tolist(), mask.tolist()) if keep}
    dims = lattice.shape[1]
    steps = [(a, b) for a in range(dims) for b in range(dims) if a != b]
    seen: set = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for a, b in steps:
                nxt = list(node)
                nxt[a] += 1
                nxt[b] -= 1
                nxt = tuple(nxt)
                if nxt in nodes and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


def sa_joint_law(
    probs: list[float], phi: Mapping[frozenset[int], int], horizon: int
) -> np.ndarray:
    """Joint law of (first failure time, announced label) by enumeration.

    Components fail independently, each geometrically; at the first time
    any of them fail, the set of simultaneous failures is mapped through
    phi.  Returns a (horizon, M) array of P{time = t, label = m}; the
    truncated tail mass is prod(1 - p_k) ** horizon.
    """
    probs = list(probs)
    K = len(probs)
    M = max(phi.values())
    out = np.zeros((horizon, M))
    t = np.arange(1, horizon + 1)
    for size in range(1, K + 1):
        for subset in itertools.combinations(range(1, K + 1), size):
            inside = np.prod([probs[k - 1] for k in subset])
            surv_in = np.prod([1.0 - probs[k - 1] for k in subset])
            surv_out = np.prod(
                [1.0 - probs[k - 1] for k in range(1, K + 1) if k not in subset]
            )
            mass = surv_in ** (t - 1) * inside * surv_out**t
            out[:, phi[frozenset(subset)] - 1] += mass
    return out
