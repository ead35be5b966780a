"""Telegraph dynamics of the orientation trend.

The orientation of the intrinsic angular momentum alternates between an
upward trend (theta in the upper half-sphere) and a downward trend, with
random dwell durations.  Only the binary trend process matters for the
measurement statistics: the probability of spin-up equals the long-run
fraction of time spent trending upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import _require_count, _require_int, _require_real

EXPONENTIAL = "exponential"
FIXED = "fixed"


@dataclass(frozen=True)
class DwellModel:
    """Mean dwell times of the upward/downward trend segments."""

    tau_plus: float = 1.0
    tau_minus: float = 1.0
    distribution: str = EXPONENTIAL

    def __post_init__(self):
        _require_real("tau_plus", self.tau_plus, 0.0, open_low=True)
        _require_real("tau_minus", self.tau_minus, 0.0, open_low=True)
        # the switching rate of the flip law: an inf one makes P(odd flips)
        # NaN at delay 0 (inf * 0) and overflows the trajectory's segment count
        if not 1.0 / self.tau_plus + 1.0 / self.tau_minus < math.inf:
            raise ValueError(
                "tau_plus and tau_minus: the switching rate 1/tau_plus + "
                f"1/tau_minus must be finite, got {self.tau_plus!r} and "
                f"{self.tau_minus!r}"
            )
        if self.distribution not in (EXPONENTIAL, FIXED):
            raise ValueError("distribution must be 'exponential' or 'fixed'")


@dataclass(frozen=True, eq=False)
class TelegraphTrajectory:
    """Alternating trend segments tiling [0, total_duration] gaplessly, held
    as read-only arrays; compare them with np.array_equal, not ==."""

    start_times: np.ndarray
    trends: np.ndarray  # +1 / -1, strictly alternating
    total_duration: float

    def __post_init__(self):
        starts = np.asarray(self.start_times, dtype=float).view()
        trends = np.asarray(self.trends).view()
        starts.flags.writeable = trends.flags.writeable = False
        object.__setattr__(self, "start_times", starts)
        object.__setattr__(self, "trends", trends)
        if not len(starts) or starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        if len(starts) != len(trends):
            raise ValueError("start_times and trends must have equal length")
        # comparisons only, so a NaN fails each of them
        if not np.all(starts[1:] > starts[:-1]):
            raise ValueError("start times must be strictly increasing")
        # +1, -1 or -1, +1, then period two: one contiguous comparison
        first = trends[0]
        if not (
            first in (1, -1)
            and np.all(trends[1:2] == -int(first))
            and np.all(trends[2:] == trends[:-2])
        ):
            raise ValueError("trends must alternate between +1 and -1")
        _require_real("total_duration", self.total_duration)
        if not starts[-1] < self.total_duration:
            raise ValueError("last segment must start before total_duration")

    def trend_at(self, t: float) -> int:
        """Trend at time t; boundary instants belong to the later segment."""
        _require_real("t", t, 0.0, self.total_duration)
        idx = np.searchsorted(self.start_times, t, side="right") - 1
        return int(self.trends[idx])


def simulate(
    model: DwellModel,
    duration: float,
    initial_trend: int,
    rng: np.random.Generator,
) -> TelegraphTrajectory:
    """Generate alternating dwell segments until the window is covered."""
    _require_real("duration", duration, 0.0, open_low=True)
    _require_int("initial_trend", initial_trend, -1, 1)
    if initial_trend == 0:
        raise ValueError("initial_trend must be +1 or -1, got 0")
    # segment i has trend initial_trend * (-1)**i, so each batch is rows of
    # (initial, other) dwells: one standard exponential fill, scaled in place,
    # as rng.exponential(tau) would draw them.  times[0] carries the running
    # end in, so one cumsum per batch adds in the order of a running total.
    pairs = int(duration / (model.tau_plus + model.tau_minus)) + 1
    batch = pairs + 4 * math.isqrt(pairs) + 8
    taus = (model.tau_plus, model.tau_minus)[::initial_trend]  # (initial, other)
    chunks, end = [], 0.0
    while end < duration:
        times = np.empty(2 * batch + 1)
        times[0] = end
        dwells = times[1:].reshape(batch, 2)
        if model.distribution == EXPONENTIAL:
            rng.standard_exponential(out=dwells)
        else:
            dwells.fill(1.0)
        # column by column: a (2,) operand would loop over 2-element rows
        dwells[:, 0] *= taus[0]
        dwells[:, 1] *= taus[1]
        np.cumsum(times, out=times)
        chunks.append(times[1:] if chunks else times)
        end = times[-1]
    if len(chunks) > 1:
        times = np.concatenate(chunks)
    segments = int(np.searchsorted(times, duration))
    trends = np.empty(segments, dtype=np.int64)
    trends[0::2] = initial_trend
    trends[1::2] = -initial_trend
    return TelegraphTrajectory(times[:segments], trends, duration)


def empirical_fractions(traj: TelegraphTrajectory) -> tuple[float, float]:
    """Time fractions (up, down); they sum to 1 exactly."""
    # segments alternate, so the up ones start at every other start, from 0
    # or 1, and each ends where the next segment starts, the last one at
    # total_duration: only the up durations are formed, each as one subtraction
    first = int(traj.trends[0] < 0)
    starts = traj.start_times[first::2]
    ends = traj.start_times[first + 1 :: 2]
    up_durations = np.empty_like(starts)
    np.subtract(ends, starts[: len(ends)], out=up_durations[: len(ends)])
    if len(ends) < len(starts):
        up_durations[-1] = traj.total_duration - starts[-1]
    up = float(up_durations.sum()) / traj.total_duration
    return up, 1.0 - up


def _odd_flip_by_start(model: DwellModel, delay: float) -> tuple[float, float]:
    """(p+, p-): P(odd number of trend switches within delay | initial trend
    +1 / -1), the flip law of the Bell outcome table, which
    odd_flip_probability averages.  Exponential dwells, with rate sum
    L = 1/tau+ + 1/tau-: the Markov transition
    (1/tau_s) / L (1 - exp(-L delay)).  Fixed dwells, the first segment seen
    at a uniform point: a shift r = delay mod T, T = tau+ + tau-, moves
    phases of measure min(r, T - r, tau+, tau-) from either trend into the other."""
    _require_real("delay", delay, 0.0)
    # where T overflows, both laws are taken in half scale: each tau is then
    # at least 2**970, so halving it is exact, and a subnormal delay that
    # halving rounds flips with probability 0 at such dwells; scale 1 keeps
    # every bit
    scale = 0.5 if model.tau_plus + model.tau_minus == math.inf else 1.0
    tau_plus, tau_minus = scale * model.tau_plus, scale * model.tau_minus
    period = tau_plus + tau_minus
    if model.distribution == EXPONENTIAL:
        odd = 1.0 - math.exp(-(1.0 / model.tau_plus + 1.0 / model.tau_minus) * delay)
        # tau-/T = (1/tau+) / (1/tau+ + 1/tau-); 1 - it keeps p+ + p- = odd to an ulp
        share = tau_minus / period
        return share * odd, (1.0 - share) * odd
    r = math.fmod(scale * delay, period)
    shared = min(r, period - r, tau_plus, tau_minus)
    return shared / tau_plus, shared / tau_minus


def flip_parity(model: DwellModel, delay: float, rng: np.random.Generator, size):
    """Whether the trend has switched an odd number of times within delay:
    `size` exact Monte Carlo samples, each from an equally weighted initial
    trend.  An equal mixture of Bernoulli(p+) and Bernoulli(p-) is
    Bernoulli((p+ + p-) / 2), so each sample is one uniform against
    odd_flip_probability, and the cost does not depend on delay."""
    p = odd_flip_probability(model, delay)
    return rng.random(_require_count("size", size)) < p


def odd_flip_probability(model: DwellModel, delay: float) -> float:
    """P(odd number of trend switches within delay), flip_parity's law, in
    closed form: the mean of `_odd_flip_by_start` over equally weighted
    initial trends, 1/2 (1 - exp(-(1/tau+ + 1/tau-) delay)) for exponential
    dwells and 1/2 min(r, T - r, tau+, tau-) (1/tau+ + 1/tau-) for fixed ones."""
    p_plus, p_minus = _odd_flip_by_start(model, delay)
    return 0.5 * (p_plus + p_minus)
