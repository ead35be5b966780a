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
per-pair sampler draws its cells.  It is built from three laws: the
corner weights of joint_density, the probability p+ or p- that Bob's
pole flips given his start trend (telegraph._odd_flip_by_start), and the
reading rule that a pole at 0 reads with mean cos(angle) and one at pi
with -cos(angle).  Each cell is (1 + S_B mu_B + S_A S_B c) / 8, with Bob's
mean reading mu_B and the branch correlation c (see _outcome_table).

Delayed measurement degrades the z-branch correlation: Bob's trend
evolves as a telegraph process during the delay, and an odd number of
switches flips his pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import MAX_DRAWS, _require_count, _require_real
from .telegraph import DwellModel, _odd_flip_by_start

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


# joint_density's weights, half on each of the two compatible corners
_CORNER_WEIGHTS = {ANTI: (0.0, 0.5, 0.5, 0.0), SAME: (0.5, 0.0, 0.0, 0.5)}
_NO_FLIP = (0.0, 0.0)


def joint_density(model: BellPairModel, axis: str) -> tuple:
    """Weights of one axis's (theta_A, theta_B) corners, in the order
    (0,0), (0,pi), (pi,0), (pi,pi)."""
    if axis == AXIS_Z:
        return _CORNER_WEIGHTS[model.z_correlation]
    if axis == AXIS_Y:
        return _CORNER_WEIGHTS[model.y_correlation]
    raise ValueError("axis must be 'z' or 'y'")


def correlation(model: BellPairModel, a: float, b: float) -> float:
    """E(a, b): sum of the z-branch and the complementary y-branch terms."""
    _require_real("a", a)
    _require_real("b", b)
    return _correlation(_coincidences(_outcome_table(model, a, b)))


# ---------------------------------------------------------------------------
# the outcome table


def _outcome_table(
    model: BellPairModel,
    a: float,
    b: float,
    flips: tuple = _NO_FLIP,
    degrade_y: bool = False,
) -> tuple:
    """Joint law P(branch, S_A, S_B) = (1 + S_B mu_B + S_A S_B c) / 8.

    Each branch is taken with probability 1/2, its corners with the
    joint_density weights w; Bob's pole flips with probability p+ from 0
    and p- from pi, flips = (p+, p-), on the y-branch only if degrade_y; a
    pole at 0 reads with mean cos(angle), one at pi with -cos(angle).  Each
    pole sits at 0 with weight 1/2, so Alice's mean reading is 0, Bob's is
    mu_B = (p- - p+) cos(beta), and the correlation is
    c = (w0 - w1 - w2 + w3) cos(alpha) cos(beta) (1 - (p+ + p-)).  Every
    Bell quantity, analytic or sampled, derives from this table.  Cells run
    over (S_A, S_B) = ++, +-, -+, -- on the z-branch, then on the y-branch.
    """
    cells = ()
    for axis, alpha, beta, (p_plus, p_minus) in (
        (AXIS_Z, a, b, flips),
        (AXIS_Y, math.pi / 2 - a, math.pi / 2 - b, flips if degrade_y else _NO_FLIP),
    ):
        w0, w1, w2, w3 = joint_density(model, axis)
        cos_b = math.cos(beta)
        c = (w0 - w1 - w2 + w3) * math.cos(alpha) * cos_b * (1.0 - (p_plus + p_minus))
        mu_b = (p_minus - p_plus) * cos_b
        cells += ((1.0 + mu_b + c) / 8.0, (1.0 - mu_b - c) / 8.0,
                  (1.0 + mu_b - c) / 8.0, (1.0 - mu_b + c) / 8.0)
    return cells


def _coincidences(c) -> tuple:
    """(++, +-, -+, --) weights of an 8-cell table or count vector."""
    return (c[0] + c[4], c[1] + c[5], c[2] + c[6], c[3] + c[7])


def _correlation(coincidences, total=1.0) -> float:
    """Branch-sum E = 2 sum S_A S_B w / total from (++, +-, -+, --) weights."""
    pp, pm, mp, mm = coincidences
    return 2.0 * (pp + mm - pm - mp) / total


def _evaluate(table, mode: str, n: int, rng: np.random.Generator | None):
    """(E, stderr, coincidences) of n pairs with the table's law.

    Analytic mode gives the exact E, stderr 0 and the expected counts n P.
    Monte Carlo mode makes one multinomial draw of n pairs; the products
    S_A S_B are +/-1 with mean E/2, so the estimator's standard error is
    2 sqrt((1 - (E/2)^2) / n).
    """
    _require_count("n", n, high=MAX_DRAWS)
    if mode == ANALYTIC:
        cells = _coincidences(table)
        return _correlation(cells), 0.0, tuple([n * w for w in cells])
    if mode != MONTE_CARLO:
        raise ValueError(f"mode must be {ANALYTIC!r} or {MONTE_CARLO!r}")
    if rng is None:
        raise ValueError("Monte Carlo mode needs an rng")
    # a cell whose exact value is 0, where a pole that flips with probability
    # 1 is read at 0 or pi, can round to -1e-17, which multinomial rejects
    counts = _coincidences(rng.multinomial(n, [max(w, 0.0) for w in table]).tolist())
    e = _correlation(counts, n)
    return e, 2.0 * math.sqrt((1.0 - (e / 2.0) ** 2) / n), counts


# ---------------------------------------------------------------------------
# sampling


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
    n = _require_count("n", n)
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
    e_hat, stderr, _ = _evaluate(_outcome_table(model, a, b), MONTE_CARLO, n, rng)
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
        _require_count("samples", self.samples, high=MAX_DRAWS)
        _require_real("delay", self.delay, 0.0)
        for name in ("alice_angles", "bob_angles"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2):
                raise ValueError(f"{name} must be two angles, got {pair!r}")
            for angle in pair:
                _require_real(name, angle)


@dataclass(frozen=True)
class ChshResult:
    settings: tuple  # ((a, b), (a, b'), (a', b), (a', b'))
    expectations: tuple
    stderrs: tuple
    statistic: float
    # per setting, the (++, +-, -+, --) coincidences of plan.samples pairs:
    # the drawn counts in Monte Carlo mode, their expectations in analytic
    counts: tuple


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
    flips = _odd_flip_by_start(plan.dwell, plan.delay)
    a, ap = plan.alice_angles
    b, bp = plan.bob_angles
    settings = ((a, b), (a, bp), (ap, b), (ap, bp))
    es, ses, counts = zip(*(
        _evaluate(
            _outcome_table(model, sa, sb, flips, degrade_y),
            mode, plan.samples, rng,
        )
        for sa, sb in settings
    ))
    return ChshResult(settings, es, ses, abs(es[0] - es[1] + es[2] + es[3]), counts)


# ---------------------------------------------------------------------------
# delayed measurement


def delayed_correlation(
    model: BellPairModel,
    a: float,
    b: float,
    delay: float,
    dwell: DwellModel,
    degrade_y: bool = False,
) -> float:
    """Analytic E(a, b) when Bob delays his measurement; `chsh` samples it.

    The z-branch correlation decays by the odd-switch parity of Bob's
    telegraph trend; the y-branch is kept intact unless degrade_y.
    """
    _require_real("a", a)
    _require_real("b", b)
    flips = _odd_flip_by_start(dwell, delay)
    table = _outcome_table(model, a, b, flips, degrade_y)
    return _correlation(_coincidences(table))


def outcome_counts(s_a: np.ndarray, s_b: np.ndarray) -> dict:
    """Coincidence counts keyed '++', '+-', '-+', '--' for CSV export."""
    return {
        "++": int(np.sum((s_a > 0) & (s_b > 0))),
        "+-": int(np.sum((s_a > 0) & (s_b < 0))),
        "-+": int(np.sum((s_a < 0) & (s_b > 0))),
        "--": int(np.sum((s_a < 0) & (s_b < 0))),
    }
