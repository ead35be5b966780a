import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinmodel import telegraph as tg
from spinmodel.streams import stream

taus = st.floats(min_value=0.05, max_value=5.0)
# the smallest normal float: the dwell mean with the largest finite
# switching rate 2 / TAU_MIN when both means take it
TAU_MIN = sys.float_info.min


def _mirrored(traj):
    """The trajectory with every trend flipped: its up segments are the
    original's down ones."""
    return tg.TelegraphTrajectory(traj.start_times, -traj.trends, traj.total_duration)


class TestDwellModel:
    @pytest.mark.parametrize(
        "tp,tm", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_rejects_nonpositive_means(self, tp, tm):
        with pytest.raises(ValueError):
            tg.DwellModel(tp, tm)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            tg.DwellModel(1.0, 1.0, "weibull")

    @pytest.mark.parametrize(
        "tp, tm", [(1e-320, 1e-320), (5e-324, 1.0), (1.0, 5e-324), (1e-308, 1e-308)]
    )
    def test_rejects_an_infinite_switching_rate(self, tp, tm):
        with pytest.raises(ValueError, match="tau_plus and tau_minus"):
            tg.DwellModel(tp, tm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
    def test_odd_flips_at_the_smallest_normal_dwells(self, distribution):
        # an infinite rate made the probability inf * 0 = NaN at delay 0
        model = tg.DwellModel(TAU_MIN, TAU_MIN, distribution)
        assert tg.odd_flip_probability(model, 0.0) == 0.0
        for delay in (1e-308, 1.0):
            assert 0.0 <= tg.odd_flip_probability(model, delay) <= 1.0

    @pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
    def test_simulate_at_the_smallest_normal_dwells(self, distribution):
        # an infinite rate overflowed the segment count; 1e-306 spans ~45
        # segments of these means
        model = tg.DwellModel(TAU_MIN, TAU_MIN, distribution)
        traj = tg.simulate(model, 1e-306, +1, stream(9, "tg-min-dwell"))
        assert 1 < len(traj.start_times) < 100
        assert sum(tg.empirical_fractions(traj)) == 1.0


class TestTrajectory:
    def _traj(self):
        return tg.TelegraphTrajectory((0.0, 1.0, 2.5), (+1, -1, +1), 4.0)

    def test_segments_tile_duration(self):
        # up segments [0, 1) and [2.5, 4], down [1, 2.5)
        traj = self._traj()
        assert tg.empirical_fractions(traj) == (0.625, 0.375)
        assert tg.empirical_fractions(_mirrored(traj)) == (0.375, 0.625)

    def test_boundary_belongs_to_later_segment(self):
        traj = self._traj()
        assert traj.trend_at(1.0) == -1
        assert traj.trend_at(2.5) == +1
        assert traj.trend_at(0.0) == +1

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            tg.TelegraphTrajectory((0.0, 1.0), (+1, +1), 2.0)

    def test_rejects_gap_at_origin(self):
        with pytest.raises(ValueError):
            tg.TelegraphTrajectory((0.5, 1.0), (+1, -1), 2.0)

    @pytest.mark.parametrize(
        "starts, trends, duration, message",
        [
            ((0.0, 1.0), (+1, -1, +1), 2.0, "equal length"),
            ((0.0, 1.0, 1.0), (+1, -1, +1), 2.0, "strictly increasing"),
            ((0.0, 1.5, 1.0), (+1, -1, +1), 2.0, "strictly increasing"),
            ((0.0, 1.0, 2.0), (+1, -1, +1), 2.0, "before total_duration"),
            # a NaN fails every comparison, so a NaN start or window passed
            # tests that reject on a true comparison, as did an infinite
            # window; the fractions read NaN, or 0 up
            ((0.0, math.nan, 2.0), (+1, -1, +1), 3.0, "strictly increasing"),
            ((0.0, 1.0), (+1, -1), math.nan, "total_duration must be finite"),
            ((0.0, 1.0), (+1, -1), math.inf, "total_duration must be finite"),
            ((0.0, 1.0, 2.0), (+1, -1, -1), 3.0, r"alternate between \+1 and -1"),
            ((0.0, 1.0, 2.0), (-1, +1, 1.5), 3.0, r"alternate between \+1 and -1"),
            # a product of -1 and a lone segment passed the alternation test
            ((0.0, 1.0), (0.5, -2.0), 2.0, r"alternate between \+1 and -1"),
            ((0.0,), (2,), 1.0, r"alternate between \+1 and -1"),
        ],
    )
    def test_rejects_malformed_segments(self, starts, trends, duration, message):
        with pytest.raises(ValueError, match=message):
            tg.TelegraphTrajectory(starts, trends, duration)

    def test_rejects_queries_outside_window(self):
        # a NaN fails every comparison, so only a comparison that must hold
        # rejects it
        for t in (4.5, math.nan):
            with pytest.raises(ValueError):
                self._traj().trend_at(t)

    def test_stores_read_only_arrays(self):
        traj = self._traj()
        assert traj.start_times.dtype == np.float64
        assert np.array_equal(traj.trends, (+1, -1, +1))
        assert type(traj.trend_at(3.0)) is int
        with pytest.raises(ValueError):
            traj.start_times[1] = 0.5
        with pytest.raises(ValueError):
            traj.trends[0] = -1

    def test_compares_by_identity(self):
        # field-wise == would ask numpy for the truth of an array
        traj = self._traj()
        assert traj == traj
        assert traj != self._traj()


class TestSimulate:
    @settings(max_examples=30, deadline=None)
    @given(taus, taus, st.integers(min_value=0, max_value=1000))
    def test_invariants_hold(self, tau_plus, tau_minus, trial):
        model = tg.DwellModel(tau_plus, tau_minus)
        rng = stream(9, "tg-sim", trial)
        traj = tg.simulate(model, 20.0, +1, rng)
        # the constructor enforces tiling/alternation; re-check durations:
        # the up and the down segments, each summed on its own, tile it
        assert traj.trends[0] == +1
        up, down = tg.empirical_fractions(traj)
        mirrored_up, _ = tg.empirical_fractions(_mirrored(traj))
        assert up + mirrored_up == pytest.approx(1.0)
        assert up + down == pytest.approx(1.0)

    @pytest.mark.parametrize("tp,tm", [(1.0, 1.0), (3.0, 1.0), (0.2, 0.8)])
    def test_long_run_fraction(self, tp, tm):
        model = tg.DwellModel(tp, tm)
        rng = stream(9, "tg-fraction", tp, tm)
        traj = tg.simulate(model, 1e5 * min(tp, tm), +1, rng)
        up, _ = tg.empirical_fractions(traj)
        assert up == pytest.approx(tp / (tp + tm), abs=0.01)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_duration(self, duration):
        # inf overflowed the pair count and nan failed to convert to an int
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            tg.simulate(tg.DwellModel(), duration, +1, stream(9, "tg-bad-duration"))

    def test_fixed_dwells_are_periodic(self):
        model = tg.DwellModel(1.0, 2.0, tg.FIXED)
        rng = stream(9, "tg-periodic")
        traj = tg.simulate(model, 9.5, +1, rng)
        assert np.array_equal(traj.start_times, (0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 9.0))


def _sequential_simulate(model, duration, initial_trend, rng):
    """Reference: one dwell draw per segment, summed as a running total."""

    def draw(trend):
        tau = model.tau_plus if trend > 0 else model.tau_minus
        return tau if model.distribution == tg.FIXED else float(rng.exponential(tau))

    starts, trends = [0.0], [initial_trend]
    t = draw(initial_trend)
    trend = initial_trend
    while t < duration:
        trend = -trend
        starts.append(t)
        trends.append(trend)
        t += draw(trend)
    return tuple(starts), tuple(trends)


@pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
@pytest.mark.parametrize("initial_trend", [+1, -1])
@pytest.mark.parametrize("duration", [0.05, 7.3, 2000.0])
def test_simulate_matches_sequential_reference(distribution, initial_trend, duration):
    model = tg.DwellModel(0.7, 1.9, distribution)
    key = (9, "tg-sequential", distribution, initial_trend, duration)
    traj = tg.simulate(model, duration, initial_trend, stream(*key))
    starts, trends = _sequential_simulate(model, duration, initial_trend, stream(*key))
    assert np.array_equal(traj.start_times, starts)
    assert np.array_equal(traj.trends, trends)


def _state(rng):
    # SFC64's state holds an array, which == cannot compare as a whole
    return repr(rng.bit_generator.state)


class _ShrunkFirstFills:
    """A generator whose first `shrunk` standard exponential fills are scaled
    by 2**-12, so the first batches fall short of the window; the scale is a
    power of two, so it commutes with the dwell means bit for bit."""

    SCALE = 2.0**-12

    def __init__(self, rng, shrunk):
        self.rng, self.shrunk, self.fills = rng, shrunk, []

    def standard_exponential(self, out):
        self.rng.standard_exponential(out=out)
        if len(self.fills) < self.shrunk:
            out *= self.SCALE
        self.fills.append(out.size)


@pytest.mark.parametrize("initial_trend", [+1, -1])
@pytest.mark.parametrize("shrunk", [1, 2])
def test_redraw_continues_the_running_total(initial_trend, shrunk):
    # a batch that does not reach the window draws another, whose running
    # total starts at the last end
    model = tg.DwellModel(0.7, 1.9)
    duration = 300.0
    key = (9, "tg-redraw", initial_trend, shrunk)
    rng = _ShrunkFirstFills(stream(*key), shrunk)
    traj = tg.simulate(model, duration, initial_trend, rng)
    assert len(rng.fills) == shrunk + 1

    reference = stream(*key)
    taus = {+1: model.tau_plus, -1: model.tau_minus}
    starts, trends, t, trend = [0.0], [initial_trend], 0.0, initial_trend
    for batch, size in enumerate(rng.fills):
        scale = _ShrunkFirstFills.SCALE if batch < shrunk else 1.0
        for e in reference.standard_exponential(size):
            t += (e * scale) * taus[trend]
            trend = -trend
            if t < duration:
                starts.append(t)
                trends.append(trend)
    assert t >= duration
    assert np.array_equal(traj.start_times, starts)
    assert np.array_equal(traj.trends, trends)
    assert traj.trends.dtype == np.int64
    assert _state(rng.rng) == _state(reference)


@pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
@pytest.mark.parametrize("duration", [0.05, 7.3, 2000.0, 1e5])
def test_simulate_draws_two_per_pair_of_its_batch(distribution, duration):
    # one batch of pairs + 4 isqrt(pairs) + 8 (initial, other) pairs, each
    # one standard exponential; fixed dwells draw nothing
    model = tg.DwellModel(1.0, 3.0, distribution)
    key = (9, "tg-state", distribution, duration)
    rng = stream(*key)
    tg.simulate(model, duration, -1, rng)
    reference = stream(*key)
    if distribution == tg.EXPONENTIAL:
        pairs = int(duration / 4.0) + 1
        reference.standard_exponential(2 * (pairs + 4 * math.isqrt(pairs) + 8))
    assert _state(rng) == _state(reference)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.sampled_from([+1, -1]),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1, +1, 1.0, 0)
@example(2, -1, 1.0, 0)
@example(257, -1, 0.3, 1)
@example(258, +1, 0.3, 1)
def test_fractions_match_the_boolean_mask(segments, initial_trend, tau, seed):
    # the strided up durations sum pairwise to the bits of the masked copy
    dwells = np.random.default_rng(seed).exponential(tau, segments)
    ends = np.cumsum(dwells)
    assume(np.all(np.diff(ends) > 0))
    starts = np.concatenate(([0.0], ends[:-1]))
    trends = initial_trend * (-1) ** np.arange(segments)
    traj = tg.TelegraphTrajectory(starts, trends, float(ends[-1]))
    durations = np.diff(traj.start_times, append=traj.total_duration)
    up = float(durations[traj.trends > 0].sum()) / traj.total_duration
    assert tg.empirical_fractions(traj) == (up, 1.0 - up)
    # the down durations, as up ones of the mirrored trajectory, tile the rest
    down = float(durations[traj.trends < 0].sum()) / traj.total_duration
    assert tg.empirical_fractions(_mirrored(traj))[0] == down


class TestParity:
    def test_closed_form_limits(self):
        model = tg.DwellModel(1.0, 1.0)
        assert tg.odd_flip_probability(model, 0.0) == 0.0
        assert tg.odd_flip_probability(model, 50.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("tau_plus, tau_minus", [(1.0, 3.0), (2.5, 0.4)])
    @pytest.mark.parametrize("delay", [0.2, 1.0, 3.0, 7.5])
    def test_closed_form_asymmetric_exponential(self, tau_plus, tau_minus, delay):
        # two-state Markov chain, the two initial trends weighted equally
        rates = np.array([[-1.0 / tau_plus, 1.0 / tau_plus],
                          [1.0 / tau_minus, -1.0 / tau_minus]])
        transition = expm(rates * delay)
        want = 0.5 * (transition[0, 1] + transition[1, 0])
        model = tg.DwellModel(tau_plus, tau_minus)
        assert tg.odd_flip_probability(model, delay) == pytest.approx(want, abs=1e-12)

    def test_exponential_convention_pinned(self):
        # equal initial-trend weights: 1/2 (1 - e^-4), not the stationary
        # 2 pi+ pi- (1 - e^-4)
        model = tg.DwellModel(1.0, 3.0)
        assert tg.odd_flip_probability(model, 3.0) == pytest.approx(
            0.4908421805556329, abs=1e-12
        )

    @pytest.mark.parametrize(
        "tau_plus, tau_minus", [(1.0, 1.0), (1.0, 2.0), (3.0, 0.7)]
    )
    @pytest.mark.parametrize("delay", [0.5, 1.5, 2.9, 4.0, 9.3])
    def test_closed_form_fixed_dwells(self, tau_plus, tau_minus, delay):
        # on a grid of midpoint phases, the fraction of each trend's phases
        # whose trend differs after delay; the two trends weighted equally
        period = tau_plus + tau_minus
        n = 200000
        phase = (np.arange(n) + 0.5) * period / n
        up = phase < tau_plus
        up_later = np.mod(phase + delay, period) < tau_plus
        want = 0.5 * float(np.mean(~up_later[up]) + np.mean(up_later[~up]))
        model = tg.DwellModel(tau_plus, tau_minus, tg.FIXED)
        assert tg.odd_flip_probability(model, delay) == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
    def test_closed_form_delay_bounds(self, distribution):
        model = tg.DwellModel(1.0, 2.0, distribution)
        assert tg.odd_flip_probability(model, 0.0) == 0.0
        for delay in (-0.1, math.nan):
            with pytest.raises(ValueError, match="delay must be non-negative"):
                tg.odd_flip_probability(model, delay)

    @pytest.mark.parametrize("delay", [0.1, 0.5, 1.5])
    def test_monte_carlo_matches_closed_form(self, delay):
        model = tg.DwellModel(1.0, 1.0)
        rng = stream(9, "tg-parity", delay)
        parities = tg.flip_parity(model, delay, rng, size=20000)
        assert np.mean(parities) == pytest.approx(
            tg.odd_flip_probability(model, delay), abs=0.01
        )

    def test_fixed_dwell_parity(self):
        # unit dwells observed at a uniform residual phase: an odd switch
        # count within delay 0.5 happens iff the residual life is < 0.5
        model = tg.DwellModel(1.0, 1.0, tg.FIXED)
        rng = stream(9, "tg-parity-fixed")
        parities = tg.flip_parity(model, 0.5, rng, size=20000)
        assert np.mean(parities) == pytest.approx(0.5, abs=0.01)

    def test_asymmetric_exponential_parity(self):
        # two-state chain from an equally weighted initial trend:
        # P(trend differs after delay) = 1/2 (1 - exp(-(1/tau+ + 1/tau-) delay))
        model = tg.DwellModel(1.0, 3.0)
        delay, n = 3.0, 20000
        parities = tg.flip_parity(model, delay, stream(9, "tg-parity-asym"), size=n)
        p = 0.5 * (1.0 - math.exp(-(1.0 + 1.0 / 3.0) * delay))
        assert abs(np.mean(parities) - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)

    def test_single_draw_is_a_bool(self):
        rng = stream(9, "tg-parity-single")
        parities = tg.flip_parity(tg.DwellModel(), 0.7, rng, size=5)
        assert parities.dtype == bool and parities.shape == (5,)

    def test_zero_delay_has_no_flip(self):
        rng = stream(9, "tg-parity-zero")
        assert not tg.flip_parity(tg.DwellModel(), 0.0, rng, size=5).any()

    @pytest.mark.parametrize("delay", [-0.1, math.nan])
    def test_parity_rejects_bad_delay(self, delay):
        with pytest.raises(ValueError, match="delay must be non-negative"):
            tg.flip_parity(tg.DwellModel(), delay, stream(9, "tg-parity-bad"), size=4)

    @pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
    def test_infinite_delay_rejected(self, distribution):
        # flip_parity looped forever on it; the fixed-dwell closed form hit a
        # math domain error in fmod
        model = tg.DwellModel(1.0, 2.0, distribution)
        with pytest.raises(ValueError, match="delay must be non-negative and finite"):
            tg.odd_flip_probability(model, math.inf)
        with pytest.raises(ValueError, match="delay must be non-negative and finite"):
            tg.flip_parity(model, math.inf, stream(9, "tg-parity-inf"), size=4)


ASYMMETRIC = [(1.0, 3.0), (2.5, 0.4), (1.0, 2.5)]


@pytest.mark.parametrize("tau_plus, tau_minus", ASYMMETRIC)
@pytest.mark.parametrize("delay", [0.0, 0.2, 1.0, 3.0, 7.5])
def test_table_exponential_matches_matrix_exponential(tau_plus, tau_minus, delay):
    # the off-diagonal entries of exp(Q delay) for the two-state generator Q
    rates = np.array([[-1.0 / tau_plus, 1.0 / tau_plus],
                      [1.0 / tau_minus, -1.0 / tau_minus]])
    transition = expm(rates * delay)
    table = tg._odd_flip_by_start(tg.DwellModel(tau_plus, tau_minus), delay)
    assert table == pytest.approx((transition[0, 1], transition[1, 0]), abs=1e-12)


@pytest.mark.parametrize("tau_plus, tau_minus", ASYMMETRIC)
@pytest.mark.parametrize("delay", [0.2, 0.5, 1.5, 2.9, 4.0, 9.3])
def test_table_fixed_matches_phase_grid_by_initial_trend(tau_plus, tau_minus, delay):
    # midpoint phases of the period, split by the trend they start in
    period = tau_plus + tau_minus
    n = 200000
    phase = (np.arange(n) + 0.5) * period / n
    up = phase < tau_plus
    up_later = np.mod(phase + delay, period) < tau_plus
    want = (float(np.mean(~up_later[up])), float(np.mean(up_later[~up])))
    table = tg._odd_flip_by_start(tg.DwellModel(tau_plus, tau_minus, tg.FIXED), delay)
    assert table == pytest.approx(want, abs=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "distribution, delay, each",
    [(tg.EXPONENTIAL, 1e308, -0.5 * math.expm1(-2.0)), (tg.FIXED, 1.5e308, 0.5)],
)
def test_table_where_the_period_overflows(distribution, delay, each):
    # tau+ + tau- = 2e308 is inf: the exponential split read (0, 0.8647) and
    # the fixed law (1, 1)
    table = tg._odd_flip_by_start(tg.DwellModel(1e308, 1e308, distribution), delay)
    assert table == pytest.approx((each, each), rel=1e-12)


def test_asymmetric_table_where_the_period_overflows():
    tau_plus, tau_minus, delay = 1.7e308, 1e307, 1e308
    rates = np.array([[-1.0 / tau_plus, 1.0 / tau_plus],
                      [1.0 / tau_minus, -1.0 / tau_minus]])
    transition = expm(rates * delay)
    table = tg._odd_flip_by_start(tg.DwellModel(tau_plus, tau_minus), delay)
    assert table == pytest.approx((transition[0, 1], transition[1, 0]), rel=1e-12)


@pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
@pytest.mark.parametrize(
    "tau_plus, tau_minus, delay", [(1.0, 2.5, 0.6), (2.5, 0.4, 1.9)]
)
def test_table_matches_simulated_trajectories(distribution, tau_plus, tau_minus, delay):
    # event level: the trend at the delay differs from the initial one; a
    # fixed-dwell delay starts at a uniform point of the first segment, an
    # exponential one at its start (the dwell is memoryless)
    model = tg.DwellModel(tau_plus, tau_minus, distribution)
    table = tg._odd_flip_by_start(model, delay)
    n = 2000
    for trend, tau, p in zip((+1, -1), (tau_plus, tau_minus), table):
        rng = stream(9, "tg-table-events", distribution, tau_plus, trend)
        odd = 0
        for _ in range(n):
            start = tau * rng.random() if distribution == tg.FIXED else 0.0
            traj = tg.simulate(model, start + delay, trend, rng)
            odd += traj.trend_at(start + delay) != trend
        assert abs(odd / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12


@pytest.mark.parametrize("distribution", [tg.EXPONENTIAL, tg.FIXED])
@pytest.mark.parametrize("delay", [0.5, 50.0, 1e9])
def test_parity_draws_two_uniforms_per_sample_at_any_delay(distribution, delay):
    # the per-dwell loop drew more as the delay grew, and at 1e9 never
    # returned; each sample is one uniform
    size = 1000
    rng = stream(9, "tg-parity-draws", distribution, delay)
    tg.flip_parity(tg.DwellModel(1.0, 3.0, distribution), delay, rng, size)
    reference = stream(9, "tg-parity-draws", distribution, delay)
    reference.random(size)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("tau", [0.05, 1.0 / 3.0, 0.7, 1.0, 2.5])
@pytest.mark.parametrize("delay", [0.1, 0.77, 2.9, 50.0, 1e9])
def test_symmetric_closed_forms_keep_their_bits(tau, delay):
    # the closed forms that odd_flip_probability stated before it read the
    # per-start table; the CLI's bell-test and bell-delay use tau+ = tau-
    period = tau + tau
    r = math.fmod(delay, period)
    exponential = 0.5 * (1.0 - math.exp(-(1.0 / tau + 1.0 / tau) * delay))
    fixed = 2.0 * min(r, period - r, tau, tau) / period
    assert tg.odd_flip_probability(tg.DwellModel(tau, tau), delay) == exponential
    assert tg.odd_flip_probability(tg.DwellModel(tau, tau, tg.FIXED), delay) == fixed


@pytest.mark.parametrize("tau_plus, tau_minus", ASYMMETRIC)
@pytest.mark.parametrize("delay", [0.2, 1.0, 3.0, 7.5, 50.0])
def test_asymmetric_exponential_mean_within_an_ulp(tau_plus, tau_minus, delay):
    # the mean of the table against the equal-weight closed form
    want = 0.5 * (1.0 - math.exp(-(1.0 / tau_plus + 1.0 / tau_minus) * delay))
    got = tg.odd_flip_probability(tg.DwellModel(tau_plus, tau_minus), delay)
    assert abs(got - want) <= math.ulp(want)
