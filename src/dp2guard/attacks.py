"""Poisoning attack generators: label flipping plus the three adaptive
full-knowledge attacks (aggregate-opposing perturbation with an acceptance
oracle, and the max-distance / sum-of-squares bounded scale searches)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .errors import DegenerateError

GAMMA_INIT = 10.0
GAMMA_STEP = 5.0
GAMMA_MIN = 1e-5
DIRECTIONS = ("+mean", "-mean", "sign")
FANG_ORACLES = ("defense", "accept_all")

# Unit roundoff and the smallest subnormal of float64.
_EPS = float(np.finfo(np.float64).eps) / 2
_TINY = float(np.finfo(np.float64).smallest_subnormal)
# Relative margin on a threshold T: it absorbs the rounding of T itself, of
# est +/- err, and (min-max) of the final sqrt, so that est + err <= T(1-s)
# implies the direct value is <= T and est - err > T(1+s) implies it is
# above T even after sqrt rounds.
_THRESHOLD_SLACK = 16 * _EPS


@dataclass(frozen=True)
class LabelFlipSpec:
    kind: str = "label_flip"
    offset: int = 5
    fraction: float = 0.3


@dataclass(frozen=True)
class FangSpec:
    kind: str = "fang"
    lambda0: float = GAMMA_INIT
    gamma_min: float = GAMMA_MIN
    # "defense": the attacker simulates the deployed aggregation rule and
    # tunes the perturbation to be accepted; "accept_all": non-adaptive
    # attacker submits the full-strength perturbation.
    oracle: str = "defense"


@dataclass(frozen=True)
class MinMaxSpec:
    kind: str = "minmax"
    gamma0: float = GAMMA_INIT
    step: float = GAMMA_STEP
    gamma_min: float = GAMMA_MIN
    direction: str = "+mean"


@dataclass(frozen=True)
class MinSumSpec:
    kind: str = "minsum"
    gamma0: float = GAMMA_INIT
    step: float = GAMMA_STEP
    gamma_min: float = GAMMA_MIN
    direction: str = "+mean"


AttackSpec = LabelFlipSpec | FangSpec | MinMaxSpec | MinSumSpec


def label_flip(dataset: Dataset, offset: int, fraction: float,
               rng: np.random.Generator) -> Dataset:
    """Relabel a uniform floor(fraction*n) subset as (y + offset) mod L.

    The result shares the input's read-only features and owns new labels.
    """
    if not 1 <= offset < dataset.n_classes:
        raise ValueError(f"offset must be in [1, {dataset.n_classes})")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n_flip = int(fraction * len(dataset))
    chosen = rng.choice(len(dataset), size=n_flip, replace=False)
    labels = dataset.labels.copy()
    labels[chosen] = (labels[chosen] + offset) % dataset.n_classes
    return Dataset(dataset.features, labels, dataset.n_classes)


def fang_candidate(benign_mean: np.ndarray, lam: float) -> np.ndarray:
    """Perturb the benign mean opposite to its sign pattern."""
    return benign_mean - lam * np.sign(benign_mean)


def fang_attack(benign: Sequence[np.ndarray], spec: FangSpec,
                accept: Callable[[np.ndarray], bool]) -> np.ndarray:
    """Halve the perturbation factor from lambda0 until the acceptance
    oracle (the attacker's plaintext simulation of the target aggregation
    rule) admits the crafted gradient; bottom out at gamma_min."""
    if len(benign) == 0:
        raise ValueError("fang attack needs at least one benign gradient")
    mean = np.mean(np.asarray(benign), axis=0)
    lam = spec.lambda0
    while lam >= spec.gamma_min:
        candidate = fang_candidate(mean, lam)
        if accept(candidate):
            return candidate
        lam *= 0.5
    return fang_candidate(mean, spec.gamma_min)


class RowDistances(NamedTuple):
    """A stack's squared row norms and all-pairs squared distances: the
    O(N^2 d) part that a round computes once on its honest rows and shares
    between the scale searches' budgets, the fang oracle and Multi-Krum."""
    sq_norms: np.ndarray
    sq_dists: np.ndarray


def row_distances(stack: np.ndarray) -> RowDistances:
    sq = _sq_row_norms(stack)
    return RowDistances(sq, pairwise_sq_dists(stack, sq))


def _sq_row_norms(stack: np.ndarray) -> np.ndarray:
    """Squared row norms through one reused d-vector, each summed on its
    own: the same pairwise sums as (stack**2).sum(axis=1) without its
    (N, d) temporary."""
    sq = np.empty(stack.shape[0])
    buf = np.empty(stack.shape[1])
    for i, row in enumerate(stack):
        sq[i] = np.square(row, out=buf).sum()
    return sq


def pairwise_sq_dists(stack: np.ndarray, sq_norms: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared distances via the Gram matrix (O(N^2) memory),
    from the rows' squared norms `sq_norms` (`_sq_row_norms` when None)."""
    sq = _sq_row_norms(stack) if sq_norms is None else sq_norms
    d2 = sq[:, None] + sq[None, :] - 2.0 * (stack @ stack.T)
    return np.maximum(d2, 0.0)


def perturbation_direction(benign_mean: np.ndarray, direction: str) -> np.ndarray:
    """Unit perturbation vector: the mean's direction, its negation, or the
    normalized sign pattern."""
    if direction in ("+mean", "-mean"):
        norm = float(np.linalg.norm(benign_mean))
        if norm == 0.0:
            return np.zeros_like(benign_mean)
        unit = benign_mean / norm
        return unit if direction == "+mean" else -unit
    if direction == "sign":
        signs = np.sign(benign_mean)
        norm = float(np.linalg.norm(signs))
        return signs / norm if norm > 0 else signs
    raise ValueError(f"unknown perturbation direction {direction!r}")


def minmax_attack(benign: Sequence[np.ndarray], spec: MinMaxSpec,
                  dists: RowDistances | None = None) -> np.ndarray:
    """Largest perturbation scale keeping the crafted gradient's worst-case
    distance to any benign gradient within the benign diameter.

    `dists` are the benign rows' `row_distances`, computed here when None.
    Cost beyond them: one O(N*d) pass over the benign rows
    (`_ShiftedDistances`), then O(N) per bisection step.  Each step decides
    from the expanded distances when they clear the diameter by their
    rounding-error bound, and otherwise evaluates `_minmax_feasible_exact`,
    the direct float expression; a certified decision always equals the
    direct one, so the returned gradient is bit-identical to deciding every
    step directly.
    """
    grads = np.asarray(benign, dtype=np.float64)
    if grads.shape[0] < 2:
        raise DegenerateError("scale search needs at least two benign gradients")
    sq_norms, sq_dists = row_distances(grads) if dists is None else dists
    mean = grads.mean(axis=0)
    bound = float(np.sqrt(sq_dists.max()))
    direction = perturbation_direction(mean, spec.direction)
    if bound == 0.0 or not np.any(direction):
        return mean

    shifted = _ShiftedDistances(grads, mean, direction, sq_norms)
    bound_sq = bound * bound
    err_factor = 8 * (grads.shape[1] + 8)

    def feasible(gamma: float) -> bool:
        est, mag = shifted.at(gamma)
        decided = _certified(est, err_factor * (_EPS * mag + _TINY), bound_sq)
        if decided is not None:
            return decided
        return _minmax_feasible_exact(grads, mean, direction, gamma, bound)

    gamma = _largest_feasible_scale(feasible, spec.gamma0, spec.step, spec.gamma_min)
    return mean + gamma * direction


def _minmax_feasible_exact(grads: np.ndarray, mean: np.ndarray, direction: np.ndarray,
                           gamma: float, bound: float) -> bool:
    """The direct O(N*d) min-max decision that certified steps reproduce."""
    candidate = mean + gamma * direction
    dists = np.linalg.norm(grads - candidate, axis=1)
    return float(dists.max()) <= bound


def minsum_attack(benign: Sequence[np.ndarray], spec: MinSumSpec,
                  dists: RowDistances | None = None) -> np.ndarray:
    """Largest perturbation scale keeping the crafted gradient's total
    squared distance to the benign set within any benign member's budget.

    `dists`, cost and decisions as in `minmax_attack`: one O(N*d) pass,
    then O(N) per bisection step, falling back to `_minsum_feasible_exact`
    only when the summed estimate lies within its error bound of the
    budget.  The
    bound grows with N*d because the direct form is one float reduction
    over all N*d entries.
    """
    grads = np.asarray(benign, dtype=np.float64)
    if grads.shape[0] < 2:
        raise DegenerateError("scale search needs at least two benign gradients")
    sq_norms, sq_dists = row_distances(grads) if dists is None else dists
    mean = grads.mean(axis=0)
    budget = float(sq_dists.sum(axis=1).max())
    direction = perturbation_direction(mean, spec.direction)
    if budget == 0.0 or not np.any(direction):
        return mean

    shifted = _ShiftedDistances(grads, mean, direction, sq_norms)
    err_factor = 8 * (grads.size + 8)

    def feasible(gamma: float) -> bool:
        est, mag = shifted.at(gamma)
        decided = _certified(est.sum(), err_factor * (_EPS * mag.sum() + _TINY), budget)
        if decided is not None:
            return decided
        return _minsum_feasible_exact(grads, mean, direction, gamma, budget)

    gamma = _largest_feasible_scale(feasible, spec.gamma0, spec.step, spec.gamma_min)
    return mean + gamma * direction


def _minsum_feasible_exact(grads: np.ndarray, mean: np.ndarray, direction: np.ndarray,
                           gamma: float, budget: float) -> bool:
    """The direct O(N*d) min-sum decision that certified steps reproduce."""
    candidate = mean + gamma * direction
    total = float(((grads - candidate) ** 2).sum())
    return total <= budget


class _ShiftedDistances:
    """Squared distances from benign rows g_i to c = m + gamma*u, as
    quadratics in gamma.

    One pass accumulates, row by row with no (N, d) temporary,
    a_i = ||g_i - m||^2 and b_i = <g_i - m, u>, plus ||u||^2 and ||m||^2;
    the squared row norms ||g_i||^2 are the caller's `sq_norms` (computed
    when None).  `at(gamma)` then costs O(N) and returns

        est_i = a_i - 2*gamma*b_i + gamma^2*||u||^2
        mag_i = (sqrt(2(||g_i||^2 + ||m||^2)) + 3*gamma*||u||)^2.

    Error bound.  Let D_i be the exact ||g_i - m - gamma*u||^2 of the float
    inputs, eps the unit roundoff and gamma_k = k*eps/(1 - k*eps).  Any
    order of summing k terms (pairwise, BLAS, FMA) errs by at most
    gamma_(k-1) times the sum of their magnitudes.  Put
    K_i = ||g_i|| + ||m|| + 3*gamma*||u||, so K_i^2 <= mag_i up to
    O(d*eps) relative rounding: ||g_i||^2 enters only mag_i, and any sum
    order of its d squares is within gamma_d of exact.

    - Direct: candidate c_j = fl(m_j + fl(gamma*u_j)) is off m_j + gamma*u_j
      by at most eps*w_j, w_j = |m_j| + 3*gamma*|u_j|, ||w|| <= K_i.  With
      z = g_i - m - gamma*u, the computed sum of squares R_i is
      sum_j (z_j - eta_j)^2 (1 + phi_j), |eta_j| <= eps*w_j and
      |phi_j| <= gamma_(d+2), so by Cauchy-Schwarz
      |R_i - D_i| <= (2*eps + eps^2 + gamma_(d+2)(1 + eps)^2) K_i^2.
    - Expanded: with e = g_i - m, the errors of a_i, b_i and ||u||^2 (dot
      products of d terms) and of the three products in est_i together stay
      within gamma_(d+2)(||e|| + gamma*||u||)^2, and its two additions
      within 2.01*eps*(||e|| + gamma*||u||)^2.  As ||e|| + gamma*||u|| <= K_i,
      |est_i - D_i| <= (gamma_(d+2) + 2.01*eps) K_i^2.

    Together |est_i - R_i| <= 2.04*(d + 5)*eps*K_i^2, below the
    8*(d + 8)*eps*mag_i that min-max uses.  For min-sum the direct form is
    one reduction of N*d squares (gamma_(Nd+2)) and est is summed over N
    rows (gamma_(N-1)), giving at most 2.04*(N*d + 8)*eps*sum(K_i^2),
    below 8*(N*d + 8)*eps*sum(mag_i).  Both assume (N*d + 8)*eps < 0.005.
    Each bound adds 8*(terms + 8) smallest subnormals for products that
    underflow.  An overflow or NaN in any accumulated scalar makes est or
    mag non-finite, and then the direct expression decides.
    """

    def __init__(self, grads: np.ndarray, mean: np.ndarray, direction: np.ndarray,
                 sq_norms: np.ndarray | None = None):
        n = grads.shape[0]
        self.a = np.empty(n)
        self.b = np.empty(n)
        gg = _sq_row_norms(grads) if sq_norms is None else sq_norms
        diff = np.empty_like(mean)
        for i, row in enumerate(grads):
            np.subtract(row, mean, out=diff)
            self.a[i] = diff @ diff
            self.b[i] = diff @ direction
        self.uu = float(direction @ direction)
        self.root_p = np.sqrt(2.0 * (gg + float(mean @ mean)))
        self.root_uu = float(np.sqrt(self.uu))

    def at(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        est = self.a - 2.0 * gamma * self.b + gamma * gamma * self.uu
        mag = (self.root_p + 3.0 * gamma * self.root_uu) ** 2
        return est, mag


def _certified(est, err, threshold: float) -> bool | None:
    """Whether every estimate is certainly <= threshold (True) or some
    estimate is certainly above it (False); None when an error bound
    straddles the threshold or any value is not finite."""
    hi = threshold * (1.0 + _THRESHOLD_SLACK)
    upper = est + err
    if not (np.isfinite(hi) and np.all(np.isfinite(upper))):
        return None
    if np.any(est - err > hi):
        return False
    if np.all(upper <= threshold * (1.0 - _THRESHOLD_SLACK)):
        return True
    return None


def _largest_feasible_scale(feasible: Callable[[float], bool], gamma0: float,
                            step: float, gamma_min: float) -> float:
    """Bisection for the largest feasible scale.

    Scale 0 is always feasible (the candidate collapses onto the benign
    mean, which satisfies both distance budgets), and both constraints grow
    without bound in the scale, so the feasible set is an interval [0, g*].
    If gamma0 itself is feasible the bracket expands geometrically by
    `step` doublings before bisecting down to gamma_min resolution.
    """
    lo, hi = 0.0, gamma0
    grow = step
    while feasible(hi):
        lo, hi = hi, hi + grow
        grow *= 2.0
        if hi > 1e12:
            return lo
    while hi - lo > gamma_min:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: one float step still exceeds gamma_min
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
