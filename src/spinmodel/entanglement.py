"""Bell-pair correlations from jointly constrained orientation trends.

A Bell pair is encoded by one same/anti correlation per axis (z and y):
the four combinations map onto the four Bell states.  Each axis carries a
joint two-point density with half weight on each of its two compatible
corners.  Expectation values follow the branch-sum convention: the total
E(a, b) is the sum of the z-branch and y-branch conditional expectations
(the y-branch angles are the complements pi/2 - a, pi/2 - b).  Because a
naive equiprobable-branch Monte Carlo mean produces half of that sum, the
sampled estimator is defined as E_hat = 2 * mean(S_A * S_B).

Every quantity derives from one outcome table per setting, the joint law
of (branch, S_A, S_B): the analytic E is its branch sum, the Monte Carlo
E and its standard error come from one multinomial draw of it, and the
per-pair sampler draws its cells.

Delayed measurement degrades the z-branch correlation: Bob's trend
evolves as a telegraph process during the delay, and an odd number of
switches flips his sub-state.  Odd parity is the same event as "trend at
the delay differs from the initial trend", which has a closed form for
both exponential and fixed dwells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .telegraph import EXPONENTIAL, DwellModel

ANTI = "anti"
SAME = "same"

AXIS_Z = "z"
AXIS_Y = "y"

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class BellPairModel:
    """Per-axis correlation kind; the four combinations are the Bell states."""

    z_correlation: str
    y_correlation: str

    def __post_init__(self):
        for kind in (self.z_correlation, self.y_correlation):
            if kind not in (ANTI, SAME):
                raise ValueError("correlation kind must be 'anti' or 'same'")

    @property
    def name(self) -> str:
        return {
            (ANTI, ANTI): "psi_minus",
            (ANTI, SAME): "psi_plus",
            (SAME, ANTI): "phi_minus",
            (SAME, SAME): "phi_plus",
        }[(self.z_correlation, self.y_correlation)]


PSI_MINUS = BellPairModel(ANTI, ANTI)
PSI_PLUS = BellPairModel(ANTI, SAME)
PHI_MINUS = BellPairModel(SAME, ANTI)
PHI_PLUS = BellPairModel(SAME, SAME)

BELL_MODELS = {m.name: m for m in (PSI_MINUS, PSI_PLUS, PHI_MINUS, PHI_PLUS)}


@dataclass(frozen=True)
class JointTwoPointDensity:
    """Weights over the four (theta_A, theta_B) corners on one axis.

    Corner order: (0,0), (0,pi), (pi,0), (pi,pi).
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) != 4 or any(x < 0 for x in w):
            raise ValueError("need four non-negative weights")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)

    def as_matrix(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float).reshape(2, 2)


def joint_density(model: BellPairModel, axis: str) -> JointTwoPointDensity:
    kind = {AXIS_Z: model.z_correlation, AXIS_Y: model.y_correlation}.get(axis)
    if kind is None:
        raise ValueError("axis must be 'z' or 'y'")
    if kind == ANTI:
        return JointTwoPointDensity((0.0, 0.5, 0.5, 0.0))
    return JointTwoPointDensity((0.5, 0.0, 0.0, 0.5))


def branch_expectation(correlation: str, alpha: float, beta: float) -> float:
    """Conditional E on one branch, angles measured from the branch axis.

    Summing the four outcome products weighted by the independent
    marginals cos^2/sin^2 collapses to +/- cos(alpha) cos(beta).
    """
    sign = -1.0 if correlation == ANTI else +1.0
    return sign * math.cos(alpha) * math.cos(beta)


def correlation(model: BellPairModel, a: float, b: float) -> float:
    """E(a, b): sum of the z-branch and the complementary y-branch terms."""
    return _correlation(_outcome_table(model, a, b))


def time_constraint_satisfied(
    t_alice: float, t_bob: float, tau_plus: float
) -> bool:
    """Whether Bob measures soon enough for Alice's inference to hold."""
    if t_bob < t_alice:
        raise ValueError("t_bob must not precede t_alice")
    return (t_bob - t_alice) < tau_plus


# ---------------------------------------------------------------------------
# the outcome table


def _outcome_table(
    model: BellPairModel,
    a: float,
    b: float,
    p_flip_z: float = 0.0,
    p_flip_y: float = 0.0,
) -> tuple:
    """Joint law P(branch, S_A, S_B) = (1 + S_A S_B c_branch) / 8.

    Each branch is taken with probability 1/2 and carries the conditional
    expectation c_branch; flipping Bob's sub-state with probability p
    scales it by 1 - 2p.  Every Bell quantity, analytic or sampled,
    derives from this table.  Cells run over (S_A, S_B) = ++, +-, -+, --
    on the z-branch, then the same on the y-branch.
    """
    c_z = branch_expectation(model.z_correlation, a, b) * (1.0 - 2.0 * p_flip_z)
    c_y = branch_expectation(
        model.y_correlation, math.pi / 2 - a, math.pi / 2 - b
    ) * (1.0 - 2.0 * p_flip_y)
    same_z, diff_z = (1.0 + c_z) / 8.0, (1.0 - c_z) / 8.0
    same_y, diff_y = (1.0 + c_y) / 8.0, (1.0 - c_y) / 8.0
    return (same_z, diff_z, diff_z, same_z, same_y, diff_y, diff_y, same_y)


def _coincidences(c) -> tuple:
    """(++, +-, -+, --) weights of an 8-cell table or count vector."""
    return (c[0] + c[4], c[1] + c[5], c[2] + c[6], c[3] + c[7])


def _correlation(cells, total=1.0) -> float:
    """Branch-sum E = 2 sum S_A S_B w / total over a table or count vector."""
    pp, pm, mp, mm = _coincidences(cells)
    return 2.0 * (pp + mm - pm - mp) / total


def _estimate(table, n: int, rng: np.random.Generator):
    """(E_hat, stderr, coincidences) from one multinomial draw of n pairs.

    The products S_A S_B are +/-1 with mean E/2, so the estimator's
    standard error is 2 sqrt((1 - (E/2)^2) / n).
    """
    counts = rng.multinomial(n, table).tolist()
    e = _correlation(counts, n)
    return e, 2.0 * math.sqrt((1.0 - (e / 2.0) ** 2) / n), _coincidences(counts)


def _check_mode(mode: str, rng):
    if mode not in (ANALYTIC, MONTE_CARLO):
        raise ValueError(f"mode must be {ANALYTIC!r} or {MONTE_CARLO!r}")
    if mode == MONTE_CARLO and rng is None:
        raise ValueError("Monte Carlo mode needs an rng")


# ---------------------------------------------------------------------------
# sampling


def sample_pair_outcome(
    model: BellPairModel, a: float, b: float, rng: np.random.Generator
):
    """One joint measurement: (S_A, S_B, branch_tag)."""
    s_a, s_b, branch = sample_pair_outcomes(model, a, b, 1, rng)
    tag = AXIS_Z if branch[0] == 0 else AXIS_Y
    return int(s_a[0]), int(s_b[0]), tag


def sample_pair_outcomes(
    model: BellPairModel,
    a: float,
    b: float,
    n: int,
    rng: np.random.Generator,
):
    """Vectorized joint outcomes; returns (S_A, S_B, branch) arrays.

    branch is 0 for z, 1 for y.  Each pair is one categorical draw from
    the outcome table.
    """
    cell = rng.choice(8, size=n, p=_outcome_table(model, a, b))
    s_a = 1 - 2 * ((cell >> 1) & 1)
    s_b = 1 - 2 * (cell & 1)
    return s_a, s_b, (cell >> 2).astype(np.int8)


def estimate_correlation(
    model: BellPairModel,
    a: float,
    b: float,
    n: int,
    rng: np.random.Generator,
):
    """Branch-sum Monte Carlo estimator E_hat = 2 mean(S_A S_B) and its SE."""
    e_hat, stderr, _ = _estimate(_outcome_table(model, a, b), n, rng)
    return e_hat, stderr


# ---------------------------------------------------------------------------
# CHSH


@dataclass(frozen=True)
class MeasurementPlan:
    alice_angles: tuple = (0.0, math.pi / 2)
    bob_angles: tuple = (math.pi / 4, 3 * math.pi / 4)
    samples: int = 10**6
    delay: float = 0.0
    dwell: DwellModel = DwellModel()

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class ChshResult:
    settings: tuple  # ((a, b), (a, b'), (a', b), (a', b'))
    expectations: tuple
    stderrs: tuple
    statistic: float
    # per setting, the (++, +-, -+, --) coincidences of plan.samples pairs:
    # the drawn counts in Monte Carlo mode, their expectations in analytic
    counts: tuple = ()

    def rows(self):
        for (a, b), e, se in zip(self.settings, self.expectations, self.stderrs):
            yield (a, b, e, se)


def _chsh_from_terms(es):
    return abs(es[0] - es[1] + es[2] + es[3])


def chsh(
    plan: MeasurementPlan,
    model: BellPairModel,
    mode: str = ANALYTIC,
    rng: np.random.Generator | None = None,
    degrade_y: bool = False,
) -> ChshResult:
    """CHSH statistic for the plan's four settings.

    A zero delay reproduces the simultaneous-measurement Bell test; a
    positive delay applies the telegraph degradation to Bob's branches.
    """
    _check_mode(mode, rng)
    p = _p_flip(plan.dwell, plan.delay)
    a, ap = plan.alice_angles
    b, bp = plan.bob_angles
    settings = ((a, b), (a, bp), (ap, b), (ap, bp))
    tables = [
        _outcome_table(model, sa, sb, p, p if degrade_y else 0.0)
        for sa, sb in settings
    ]
    if mode == ANALYTIC:
        es = tuple(_correlation(t) for t in tables)
        ses = (0.0,) * len(tables)
        counts = tuple(
            tuple(plan.samples * w for w in _coincidences(t)) for t in tables
        )
    else:
        es, ses, counts = zip(*(_estimate(t, plan.samples, rng) for t in tables))
    return ChshResult(settings, es, ses, _chsh_from_terms(es), counts)


# ---------------------------------------------------------------------------
# delayed measurement


def _p_flip(dwell: DwellModel, delay: float) -> float:
    """P(odd number of Bob's trend switches within the delay).

    Odd parity is the event that the trend at the delay differs from the
    initial one.  For exponential dwells this is the two-state Markov
    transition probability averaged over the two initial trends.  Fixed
    dwells observed at a uniform phase of their period T = tau+ + tau-
    differ over a shift r = delay mod T on a set of phases of measure
    2 min(r, T - r, tau+, tau-).
    """
    if dwell.distribution == EXPONENTIAL:
        rate_sum = 1.0 / dwell.tau_plus + 1.0 / dwell.tau_minus
        return 0.5 * (1.0 - math.exp(-rate_sum * delay))
    period = dwell.tau_plus + dwell.tau_minus
    r = math.fmod(delay, period)
    return 2.0 * min(r, period - r, dwell.tau_plus, dwell.tau_minus) / period


def delayed_correlation(
    model: BellPairModel,
    a: float,
    b: float,
    delay: float,
    dwell: DwellModel,
    mode: str = ANALYTIC,
    n: int = 10**6,
    rng: np.random.Generator | None = None,
    degrade_y: bool = False,
) -> float:
    """E(a, b) when Bob delays his measurement.

    The z-branch correlation decays by the odd-switch parity of Bob's
    telegraph trend; the y-branch is kept intact unless degrade_y.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")
    _check_mode(mode, rng)
    p = _p_flip(dwell, delay)
    table = _outcome_table(model, a, b, p, p if degrade_y else 0.0)
    if mode == ANALYTIC:
        return _correlation(table)
    return _estimate(table, n, rng)[0]


def outcome_counts(s_a: np.ndarray, s_b: np.ndarray) -> dict:
    """Coincidence counts keyed '++', '+-', '-+', '--' for CSV export."""
    return {
        "++": int(np.sum((s_a > 0) & (s_b > 0))),
        "+-": int(np.sum((s_a > 0) & (s_b < 0))),
        "-+": int(np.sum((s_a < 0) & (s_b > 0))),
        "--": int(np.sum((s_a < 0) & (s_b < 0))),
    }


def rank_one_residual(density: JointTwoPointDensity) -> float:
    """Max-abs residual of the best rank-1 approximation of the weights.

    A factorizable (product) joint density has residual 0; the Bell-state
    densities do not factorize.
    """
    w = density.as_matrix()
    u, s, vt = np.linalg.svd(w)
    approx = s[0] * np.outer(u[:, 0], vt[0])
    return float(np.max(np.abs(w - approx)))
