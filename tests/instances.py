"""Problem instances shared across the test modules.

The two-type instances all use the same priors and densities and differ
only in the cost matrix and delay cost.  Together they cover the three
qualitative stopping-region layouts a two-alternative problem can show:
one merged stopping band, two separate stopping islands, and a merged
band that traps a pocket of continuation states.
"""

from __future__ import annotations

import numpy as np

from changediag import ProblemSpec, SuspendedAnimationSpec

TWO_TYPE_F = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.40, 0.30, 0.20, 0.10],
        [0.10, 0.20, 0.30, 0.40],
    ]
)


def two_type(a01: float, a02: float, a12: float, a21: float, c: float) -> ProblemSpec:
    return ProblemSpec(
        alphabet_size=4,
        num_types=2,
        p0=1 / 50,
        p=1 / 20,
        nu=np.array([0.5, 0.5]),
        f=TWO_TYPE_F,
        c=c,
        a=np.array([[a01, a02], [0.0, a12], [a21, 0.0]]),
    )


# Named cost layouts.  The comments record the stopping-region geometry each
# one produces on a fine grid.
FIGURES = {
    "merged": two_type(10, 10, 3, 3, 1.0),  # stopping sets merge into one band
    "merged_costly": two_type(50, 50, 3, 3, 1.0),
    "split": two_type(10, 10, 10, 10, 1.0),  # two separate stopping islands
    "split_skew": two_type(10, 10, 16, 4, 1.0),
    "asym_split": two_type(14, 20, 8, 8, 1.0),
    "asym_pocket": two_type(14, 20, 8, 8, 2.0),  # continuation pinches in two
}


def three_type() -> ProblemSpec:
    """Three post-change types on the same alphabet, uniform error costs."""
    a = np.full((4, 3), 3.0)
    a[0, :] = 10.0
    np.fill_diagonal(a[1:], 0.0)
    return ProblemSpec(
        alphabet_size=4,
        num_types=3,
        p0=1 / 50,
        p=1 / 20,
        nu=np.full(3, 1 / 3),
        f=np.vstack([TWO_TYPE_F, [[0.25, 0.40, 0.25, 0.10]]]),
        c=1.0,
        a=a,
    )


def shiryaev_binary(c: float = 1.0) -> ProblemSpec:
    """Pure change detection, one post-change alternative, two symbols."""
    return ProblemSpec(
        alphabet_size=2,
        num_types=1,
        p0=0.02,
        p=0.05,
        nu=np.array([1.0]),
        f=np.array([[0.75, 0.25], [0.25, 0.75]]),
        c=c,
        a=np.array([[1.0], [0.0]]),
    )


def hypothesis_testing_two_type() -> ProblemSpec:
    """Sequential two-hypothesis testing: the change is over before data."""
    return ProblemSpec(
        alphabet_size=4,
        num_types=2,
        p0=1.0,
        p=0.5,
        nu=np.array([0.5, 0.5]),
        f=TWO_TYPE_F,
        c=1.0,
        a=np.array([[10.0, 10.0], [0.0, 3.0], [3.0, 0.0]]),
    )


def sa_two_component(phi) -> SuspendedAnimationSpec:
    """Two components failing independently with probability 0.1 each."""
    return SuspendedAnimationSpec(
        component_failure_probs=(0.1, 0.1),
        phi=phi,
        label_densities=TWO_TYPE_F.copy(),
    )
