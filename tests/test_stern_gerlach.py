import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from spinmodel import orientation as om
from spinmodel import qm_oracle as qm
from spinmodel import stern_gerlach as sg
from spinmodel.streams import BLOCK, stream

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)

# eta * dT^2 / (4 Z_1) with eta = dT = 1: maximum screen displacement at m=1
DZ_MAX_M1 = 0.15915494309189535  # = 1 / (2 pi)


class TestRotatedProbabilities:
    def test_third_turn(self):
        assert sg.two_apparatus_up_probability(0.0, math.pi / 3) == pytest.approx(0.75)

    @given(angles)
    @example(0.0)
    @example(-0.0)
    @example(math.pi)
    @example(1e300)
    def test_untilted_first_apparatus_is_cos_squared(self, beta):
        # bit for bit: the one copy of the rotated-apparatus law
        assert sg.two_apparatus_up_probability(0.0, beta) == math.cos(beta / 2) ** 2

    @given(angles, angles)
    def test_two_apparatus_matches_oracle(self, b1, b2):
        assert sg.two_apparatus_up_probability(b1, b2) == pytest.approx(
            qm.overlap_prob(b1, b2), abs=1e-12
        )

class TestMeasurement:
    def test_up_fraction(self):
        rng = stream(3, "sg-up-fraction")
        density = om.TwoPointDensity(0.75, 0.25)
        outcomes = sg.measure_many(density, rng, 100000)
        assert np.mean(outcomes == sg.UP) == pytest.approx(0.75, abs=0.005)

    @pytest.mark.parametrize("p_up", [0.75, 0.5, 0.01])
    def test_up_count_within_five_sigma(self, p_up):
        n = 10**6
        density = om.TwoPointDensity(p_up, 1.0 - p_up)
        count = sg.up_count(density, stream(3, "sg-up-count", p_up), n)
        assert abs(count - n * p_up) <= 5 * math.sqrt(n * p_up * (1.0 - p_up))

    def test_up_count_is_one_binomial_draw(self):
        density = om.TwoPointDensity(0.75, 0.25)
        rng, ref = stream(3, "sg-binomial"), stream(3, "sg-binomial")
        count = sg.up_count(density, rng, 12345)
        assert type(count) is int
        assert count == ref.binomial(12345, 0.75)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("p_up, expected", [(1.0, 1000), (0.0, 0)])
    def test_up_count_of_a_certain_outcome(self, p_up, expected):
        density = om.TwoPointDensity(p_up, 1.0 - p_up)
        assert sg.up_count(density, stream(3, "sg-certain"), 1000) == expected

def _uniform_prior(n):
    return om.GridDensity.from_unnormalized(om.theta_grid(n), np.ones(n))


class TestConditionalDensity:
    def test_uniform_prior_gives_closed_form(self):
        post = sg.conditional_density(_uniform_prior(4096), m=2)
        target = np.asarray(om.eval_density(2, post.thetas))
        assert float(np.max(np.abs(post.values - target))) < 1e-9

    def test_repeated_filtering_sharpens(self):
        once = sg.conditional_density(_uniform_prior(4096), m=1)
        twice = sg.conditional_density(once, m=1)
        target = np.asarray(om.eval_density(2, twice.thetas))
        assert float(np.max(np.abs(twice.values - target))) < 1e-9


def _odd_power_one_call(c, m):
    """c**(2m+1) by repeated squaring over the whole array at once."""
    out, square = c.copy(), c * c
    while m:
        if m & 1:
            out *= square
        m >>= 1
        if m:
            square *= square
    return out


class TestDisplacement:
    def test_maximum_value(self):
        assert sg.displacement(0.0, 1, 1.0, 1.0) == pytest.approx(
            DZ_MAX_M1, abs=1e-12
        )

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 1000])
    @pytest.mark.parametrize("eta, transit_time", [(1.0, 1.0), (0.3, 2.5), (7.0, 0.1)])
    def test_scale_is_exact(self, m, eta, transit_time):
        # the displacement at theta = 0 is the histogram's range, eta T^2 / (4 Z_m)
        scale = eta / (4.0 * om.normalization_constant(m)) * transit_time**2
        assert sg.displacement(0.0, m, eta, transit_time) == scale

    def test_odd_symmetry(self):
        thetas = np.linspace(0, math.pi, 101)
        dz = sg.displacement(thetas, 2, 1.0, 1.0)
        assert np.allclose(dz, -dz[::-1], atol=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 3, 10, 40])
    def test_matches_float_power(self, m):
        thetas = om.sample_theta(m, stream(3, "sg-power", m), 100000)
        prefactor = 1.0 / (4.0 * om.normalization_constant(m))
        expected = prefactor * np.cos(thetas) ** (2 * m + 1)
        dz = sg.displacement(thetas, m, 1.0, 1.0)
        np.testing.assert_allclose(dz, expected, rtol=1e-14, atol=0)

    def test_requires_finite_order(self):
        # the order is a whole number m >= 0
        with pytest.raises(ValueError, match="m must be non-negative"):
            sg.displacement(0.0, -1, 1.0, 1.0)

    @pytest.mark.parametrize(
        "eta, transit_time",
        [
            (0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
            (math.inf, 1.0), (1.0, math.inf),
        ],
    )
    def test_rejects_bad_scale(self, eta, transit_time):
        with pytest.raises(ValueError, match="eta and transit_time"):
            sg.displacement(0.0, 1, eta, transit_time)

    @pytest.mark.parametrize("eta, transit_time", [(1e308, 1e308), (1e300, 1e10)])
    def test_rejects_scale_beyond_the_float_range(self, eta, transit_time):
        # transit_time**2 overflows, then the product does
        with pytest.raises(ValueError, match="eta and transit_time"):
            sg.displacement(np.linspace(0.0, math.pi, 5), 1, eta, transit_time)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_density_normalizes(self, m):
        k = sg.displacement(0.0, m, 1.0, 1.0)
        total, _ = integrate.quad(
            lambda z: sg.displacement_density(z, m, 1.0, 1.0),
            -k,
            k,
            points=[0.0],
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_histogram_matches_analytic_density(self):
        m = 1
        config = sg.ApparatusConfig(m=m)
        rng = stream(11, "sg-histogram")
        _, edges, counts = sg.displacement_distribution(m, config, 400000, rng, bins=41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        empirical = counts / (counts.sum() * widths)
        analytic = sg.displacement_density(centers, m, 1.0, 1.0)
        # bins near the edges contain the integrable singularity; compare
        # the interior on an absolute scale set by the density height
        interior = slice(3, -3)
        assert np.max(
            np.abs(empirical[interior] - analytic[interior])
        ) < 0.15 * np.max(analytic[interior])

    @pytest.mark.parametrize(
        "gradient, transit_time",
        [
            (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
            # displacement, which every distribution call runs, rejects these
            (0.0, 1.0), (math.inf, 1.0), (1.0, math.inf),
        ],
    )
    def test_config_rejects_bad_values(self, gradient, transit_time):
        with pytest.raises(ValueError, match="gradient|transit_time"):
            sg.ApparatusConfig(gradient=gradient, transit_time=transit_time)

    @pytest.mark.parametrize("m", [math.nan, -1, 1.5])
    def test_config_rejects_non_whole_order(self, m):
        with pytest.raises(ValueError, match="whole number"):
            sg.ApparatusConfig(m=m)

    def test_distribution_rejects_order_disagreeing_with_config(self):
        with pytest.raises(ValueError, match="config.m"):
            sg.displacement_distribution(
                2, sg.ApparatusConfig(m=1), 10, stream(11, "sg-disagree")
            )

    @pytest.mark.parametrize(
        "gradient, transit_time, bins",
        [
            (1e308, 1e308, 200),  # T^2 overflows
            (1e300, 1e10, 200),  # k overflows
            (10.0, 1e154, 1),  # k is finite, 2k is not
            (1e-300, 1e-200, 200),  # k underflows to zero
            (1e-300, 1e-10, 200),  # k is subnormal
            (1e-300, 1e-3, 200),  # k is normal, 2k/bins is not
        ],
    )
    def test_distribution_rejects_bins_of_no_normal_width(
        self, gradient, transit_time, bins
    ):
        config = sg.ApparatusConfig(gradient=gradient, transit_time=transit_time)
        with pytest.raises(ValueError, match="eta and transit_time"):
            sg.displacement_distribution(1, config, 10, stream(11, "sg-scale"), bins)

    @pytest.mark.parametrize("bins", [0, -3, 2.5])
    def test_distribution_rejects_bins_that_are_not_a_count(self, bins):
        config = sg.ApparatusConfig()
        with pytest.raises(ValueError, match="bins"):
            sg.displacement_distribution(1, config, 10, stream(11, "sg-bins"), bins)

    @pytest.mark.parametrize("m", [0, 1, 3, 10])
    def test_distribution_is_displacement_of_sampled_theta(self, m):
        # cos theta drawn directly equals cos of the sampled angle from the
        # same stream, to rounding
        config = sg.ApparatusConfig(gradient=2.0, transit_time=1.5, m=m)
        dz, _, _ = sg.displacement_distribution(m, config, 50000, stream(11, "sg-cos", m))
        thetas = om.sample_theta(m, stream(11, "sg-cos", m), 50000)
        expected = sg.displacement(thetas, m, 2.0, 1.5)
        k = sg.displacement(0.0, m, 2.0, 1.5)
        assert np.max(np.abs(dz - expected)) <= 4e-15 * (2 * m + 1) * k

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_distribution_same_bits_as_one_call(self, m, n):
        # the odd power is taken one block at a time; over the whole array
        # at once the same squarings give every bit
        config = sg.ApparatusConfig(gradient=2.0, transit_time=1.5, m=m)
        rng = stream(11, "sg-blocks", m, n)
        dz, edges, counts = sg.displacement_distribution(m, config, n, rng, bins=17)
        ref = stream(11, "sg-blocks", m, n)
        k = sg.displacement(0.0, m, 2.0, 1.5)
        expected = k * _odd_power_one_call(om.sample_cos_theta(m, ref, n), m)
        assert np.array_equal(dz, expected)
        expected_counts, expected_edges = np.histogram(expected, 17, range=(-k, k))
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(edges, expected_edges)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_histogram_is_the_sum_of_block_calls(self, m, n):
        # each call spawns the next children of the stream, so the counts of
        # consecutive calls, of one block each or of any whole number of
        # blocks, are those of one call on the same key
        config = sg.ApparatusConfig(gradient=2.0, transit_time=1.5, m=m)
        rng = stream(11, "sg-stream", m, n)
        edges, counts = sg.displacement_histogram(config, n, rng, 17)
        ref = stream(11, "sg-stream", m, n)
        expected = np.zeros(17, dtype=counts.dtype)
        for start in range(0, n, BLOCK):
            size = min(BLOCK, n - start)
            _, expected_edges, part = sg.displacement_distribution(
                m, config, size, ref, 17
            )
            expected += part
        _, one_edges, one_call = sg.displacement_distribution(
            m, config, n, stream(11, "sg-stream", m, n), 17
        )
        assert np.array_equal(counts, expected)
        assert np.array_equal(counts, one_call)
        assert np.array_equal(edges, expected_edges)
        assert np.array_equal(edges, one_edges)
        assert int(counts.sum()) == n
        assert rng.random() == ref.random()

    def test_histogram_of_many_bins_draws_blocks(self):
        # more bins than the CLI allows are slower, not wrong: the counts are
        # those of one displacement_distribution call on the same key
        bins, n = BLOCK + 7, 2 * BLOCK + 2
        config = sg.ApparatusConfig(m=2)
        rng = stream(11, "sg-stream-bins")
        edges, counts = sg.displacement_histogram(config, n, rng, bins)
        ref = stream(11, "sg-stream-bins")
        _, expected_edges, expected = sg.displacement_distribution(2, config, n, ref, bins)
        assert np.array_equal(counts, expected)
        assert np.array_equal(edges, expected_edges)
        assert rng.spawn(1)[0].random() == ref.spawn(1)[0].random()

    @pytest.mark.parametrize("bins", [1, 17, 200, 16384])
    @pytest.mark.parametrize("k", [1.0, 0.1234567, 1e-290, 1e300])
    def test_bin_counts_are_those_of_np_histogram(self, bins, k):
        # every edge and its two neighbouring floats, and a uniform spread
        edges = np.histogram_bin_edges([], bins, range=(-k, k))
        x = np.concatenate([
            edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf),
            stream(11, "sg-bin-counts").uniform(-k, k, 5000),
        ]).clip(-k, k)
        n = x.size
        got = sg._bin_counts(x, edges, np.empty(n), np.empty(n, dtype=np.intp))
        assert np.array_equal(got, np.histogram(x, bins, range=(-k, k))[0])

    @pytest.mark.parametrize("bins", [0, 2.5, math.nan, 1e300])
    def test_histogram_rejects_bins_that_are_not_a_count(self, bins):
        with pytest.raises(ValueError, match="bins"):
            sg.displacement_histogram(
                sg.ApparatusConfig(), 10, stream(11, "sg-stream-bad"), bins
            )

    def test_histogram_rejects_a_bad_scale(self):
        config = sg.ApparatusConfig(gradient=1e-300, transit_time=1e-200)
        with pytest.raises(ValueError, match="eta and transit_time"):
            sg.displacement_histogram(config, 10, stream(11, "sg-stream-scale"), 200)

    @pytest.mark.parametrize("m", [0, 2])
    def test_displacement_of_any_layout(self, m):
        # a transposed theta gives a Fortran-ordered cos, which the blocks
        # must still cover in place
        thetas = np.linspace(0.0, math.pi, 2 * (BLOCK + 3)).reshape(2, -1).T
        prefactor = sg.displacement(0.0, m, 1.0, 1.0)
        expected = prefactor * _odd_power_one_call(np.cos(thetas), m)
        assert np.array_equal(sg.displacement(thetas, m, 1.0, 1.0), expected)

    def test_histogram_rows_density_normalizes(self):
        rng = stream(11, "sg-rows")
        config = sg.ApparatusConfig(m=1)
        _, edges, counts = sg.displacement_distribution(1, config, 10000, rng)
        rows = sg.histogram_rows(edges, counts)
        mass = sum(d * (r - l) for l, r, _, d in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_displacement_magnitude_bounded(m):
    rng = stream(5, "sg-bound", m)
    thetas = rng.uniform(0.0, math.pi, 100)
    dz = sg.displacement(thetas, m, 1.0, 1.0)
    assert np.all(np.abs(dz) <= sg.displacement(0.0, m, 1.0, 1.0) + 1e-15)
