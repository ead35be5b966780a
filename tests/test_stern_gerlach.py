import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from spinmodel import orientation as om
from spinmodel import qm_oracle as qm
from spinmodel import stern_gerlach as sg
from spinmodel import streams
from spinmodel.streams import BLOCK, _spans, stream

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


class TestDisplacement:
    def test_maximum_value(self):
        assert sg.displacement(0.0, 1, 1.0) == pytest.approx(
            DZ_MAX_M1, abs=1e-12
        )

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 1000])
    @pytest.mark.parametrize("eta", [1.0, 0.3, 7.0])
    def test_scale_is_exact(self, m, eta):
        # the displacement at theta = 0 is the histogram's range, eta / (4 Z_m)
        scale = eta / (4.0 * om.normalization_constant(m))
        assert sg.displacement(0.0, m, eta) == scale

    def test_odd_symmetry(self):
        thetas = np.linspace(0, math.pi, 101)
        dz = sg.displacement(thetas, 2, 1.0)
        assert np.allclose(dz, -dz[::-1], atol=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 3, 10, 40])
    def test_matches_float_power(self, m):
        thetas = om.sample_theta(m, stream(3, "sg-power", m), 100000)
        prefactor = 1.0 / (4.0 * om.normalization_constant(m))
        expected = prefactor * np.cos(thetas) ** (2 * m + 1)
        assert np.array_equal(sg.displacement(thetas, m, 1.0), expected)

    def test_requires_finite_order(self):
        # the order is a whole number m >= 0
        with pytest.raises(ValueError, match=r"m must be an int in \[0, "):
            sg.displacement(0.0, -1, 1.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_scale(self, eta):
        with pytest.raises(ValueError, match=r"eta must be a finite real in \(0\.0, inf\], got "):
            sg.displacement(0.0, 1, eta)

    @pytest.mark.parametrize("eta, m", [(1e305, 2**52 - 1), (1.7e308, 100)])
    def test_rejects_scale_beyond_the_float_range(self, eta, m):
        # eta / (4 Z_m) overflows: Z_m ~ 2.6e-8 at m = 2**52 - 1, ~0.18 at 100
        message = f"eta: displacement scale overflows at eta = {eta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sg.displacement(np.linspace(0.0, math.pi, 5), m, eta)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_density_normalizes(self, m):
        k = sg.displacement(0.0, m, 1.0)
        total, _ = integrate.quad(
            lambda z: sg.displacement_density(z, m, 1.0),
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
        edges, counts = sg.displacement_histogram(config, 400000, rng, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        empirical = counts / (counts.sum() * widths)
        analytic = sg.displacement_density(centers, m, 1.0)
        # bins near the edges contain the integrable singularity; compare
        # the interior on an absolute scale set by the density height
        interior = slice(3, -3)
        assert np.max(
            np.abs(empirical[interior] - analytic[interior])
        ) < 0.15 * np.max(analytic[interior])

    @pytest.mark.parametrize("gradient", [-1.0, 0.0, math.nan, math.inf])
    def test_config_rejects_bad_values(self, gradient):
        with pytest.raises(ValueError, match="gradient"):
            sg.ApparatusConfig(gradient=gradient)

    @pytest.mark.parametrize("m", [math.nan, -1, 1.5])
    def test_config_rejects_non_whole_order(self, m):
        with pytest.raises(ValueError, match="m must be an int"):
            sg.ApparatusConfig(m=m)

    def test_distribution_rejects_order_disagreeing_with_config(self):
        with pytest.raises(ValueError, match="config.m"):
            sg.displacement_distribution(
                2, sg.ApparatusConfig(m=1), 10, stream(11, "sg-disagree")
            )

    @pytest.mark.parametrize(
        "gradient, m, bins",
        [
            # the scale k = eta / (4 Z_m) at the unit transit time
            (1e305, 2**52 - 1, 200),  # k overflows: Z_m ~ sqrt(pi / m)
            (1.7e308, 20, 1),  # k is finite, 2k is not
            (5e-324, 1, 200),  # k underflows to zero
            (1e-310, 1, 200),  # k is subnormal
            (1e-306, 1, 200),  # k is normal, 2k/bins is not
        ],
    )
    def test_distribution_rejects_bins_of_no_normal_width(self, gradient, m, bins):
        config = sg.ApparatusConfig(gradient=gradient, m=m)
        with pytest.raises(ValueError, match="eta"):
            sg.displacement_histogram(config, 10, stream(11, "sg-scale"), bins)
        if bins == 200:  # displacement_distribution's own bins
            with pytest.raises(ValueError, match="eta"):
                sg.displacement_distribution(m, config, 10, stream(11, "sg-scale"))

    @pytest.mark.parametrize("bins", [0, -3, 2.5])
    def test_distribution_rejects_bins_that_are_not_a_count(self, bins):
        config = sg.ApparatusConfig()
        with pytest.raises(ValueError, match="bins"):
            sg.displacement_histogram(config, 10, stream(11, "sg-bins"), bins)

    @pytest.mark.parametrize("m", [0, 1, 3, 10])
    def test_distribution_is_displacement_of_sampled_theta(self, m):
        # cos theta drawn directly equals cos of the sampled angle from the
        # same stream, to rounding
        config = sg.ApparatusConfig(gradient=2.0, m=m)
        dz, _, _ = sg.displacement_distribution(m, config, 50000, stream(11, "sg-cos", m))
        thetas = om.sample_theta(m, stream(11, "sg-cos", m), 50000)
        expected = sg.displacement(thetas, m, 2.0)
        k = sg.displacement(0.0, m, 2.0)
        assert np.max(np.abs(dz - expected)) <= 4e-15 * (2 * m + 1) * k

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_distribution_same_bits_as_one_call(self, m, n):
        # block b's sin^2 theta comes from child b of one spawn; the
        # displacement formula over the whole array at once gives every bit
        config = sg.ApparatusConfig(gradient=2.0, m=m)
        rng = stream(11, "sg-blocks", m, n)
        dz, edges, counts = sg.displacement_distribution(m, config, n, rng)
        ref = stream(11, "sg-blocks", m, n)
        s, c = np.empty(n), np.empty(n)
        for child, (start, stop) in zip(ref.spawn(-(-n // BLOCK)), _spans(n)):
            om._sin2_block(m, child, s[start:stop], c[start:stop])
        k = sg.displacement(0.0, m, 2.0)
        if m:
            expected = k * np.exp((m + 0.5) * np.log1p(-np.abs(s)))
        else:
            expected = k / np.sqrt(c)
        expected = np.copysign(expected, s)
        assert np.array_equal(dz, expected)
        expected_counts, expected_edges = np.histogram(expected, 200, range=(-k, k))
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(edges, expected_edges)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_histogram_is_the_sum_of_block_calls(self, m, n):
        # each call spawns the next children of the stream, so consecutive
        # calls of one block each give the samples of one call on the same
        # key, and their counts add up to its counts
        config = sg.ApparatusConfig(gradient=2.0, m=m)
        rng = stream(11, "sg-stream", m, n)
        dz, edges, counts = sg.displacement_distribution(m, config, n, rng)
        ref = stream(11, "sg-stream", m, n)
        parts = [sg.displacement_distribution(m, config, stop - start, ref)
                 for start, stop in _spans(n)]
        assert np.array_equal(dz, np.concatenate([part[0] for part in parts]))
        assert np.array_equal(counts, sum(part[2] for part in parts))
        assert all(np.array_equal(edges, part[1]) for part in parts)
        assert int(counts.sum()) == n
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("bins", [1, 17, 200, 16384])
    @pytest.mark.parametrize("k", [1.0, 0.1234567, 1e-290, 1e300])
    def test_bin_counts_are_those_of_np_histogram(self, bins, k):
        # the sampler bins each block by np.histogram with explicit edges,
        # numpy's sort-and-search path; its counts are those of numpy's
        # path for evenly spaced bins over (-k, k), at every edge and its
        # two neighbouring floats and for a uniform spread
        edges = np.linspace(-k, k, bins + 1)
        x = np.concatenate([
            edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf),
            stream(11, "sg-bin-counts").uniform(-k, k, 5000),
        ]).clip(-k, k)
        assert np.array_equal(
            np.histogram(x, edges)[0], np.histogram(x, bins, range=(-k, k))[0]
        )

    @pytest.mark.parametrize("bins", [0, 2.5, math.nan, 1e300])
    def test_histogram_rejects_bins_that_are_not_a_count(self, bins):
        with pytest.raises(ValueError, match="bins"):
            sg.displacement_histogram(
                sg.ApparatusConfig(), 10, stream(11, "sg-stream-bad"), bins
            )

    def test_histogram_rejects_a_bad_scale(self):
        config = sg.ApparatusConfig(gradient=5e-324)
        with pytest.raises(ValueError, match="eta"):
            sg.displacement_histogram(config, 10, stream(11, "sg-stream-scale"), 200)

    def test_histogram_rows_density_normalizes(self):
        rng = stream(11, "sg-rows")
        config = sg.ApparatusConfig(m=1)
        _, edges, counts = sg.displacement_distribution(1, config, 10000, rng)
        rows = sg.histogram_rows(edges, counts)
        mass = sum(d * (r - l) for l, r, _, d in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gradient, n", [(1.0, 10**5), (1.7e308, 10**5), (1.7e308, 2**53)])
    def test_histogram_rows_density_normalizes_at_every_width(self, gradient, n):
        # at the top of eta, n times a bin width (~6e305) passes the float
        # range, and the density read 0
        config = sg.ApparatusConfig(gradient=gradient)
        edges, counts = sg.displacement_histogram(config, n, stream(11, "sg-wide"), 200)
        rows = sg.histogram_rows(edges, counts)
        assert abs(math.fsum(d * (r - l) for l, r, _, d in rows) - 1.0) <= 1e-12
        if gradient == 1.0:  # the density of the finite n * width, bit for bit
            expected = counts / (counts.sum() * np.diff(edges))
            assert [d for *_, d in rows] == expected.tolist()


# every admitted order, up to the largest, m = 2**52 - 1, which the CLI admits
LAW_ORDERS = [0, 1, 10, 10**6, 10**12, 2**52 - 1]


def _betainc_law(m, edges):
    """The exact probability of each bin of [-k, k] under theta ~ p_m:
    |z|/k = |cos theta|^{2m+1} and cos^2 theta ~ Beta(m + 1/2, 1/2), so
    P(|z|/k >= t) = I_y(1/2, m + 1/2) with y = 1 - t^{2/(2m+1)}, split
    evenly between the signs."""
    t = np.abs(edges) / edges[-1]
    with np.errstate(divide="ignore"):  # t = 0 at the centre edge, y = 1
        y = -np.expm1(2.0 * np.log(t) / (2 * m + 1))
    tail = special.betainc(0.5, m + 0.5, y)
    cdf = np.where(edges < 0, 0.5 * tail, 1.0 - 0.5 * tail)
    return np.diff(cdf)


def _edges(m, bins):
    return sg._scale_and_edges(sg.ApparatusConfig(m=m), bins)[1]


class TestDisplacementLaw:
    """The displacement's bin law and its samples against the exact law,
    at every order the CLI admits; cos theta itself has too few bits for
    the power 2m + 1 from m ~ 1e11, and the sampler that raised it filled
    12 of 200 bins at m = 2**52 - 1."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bins", [1, 2, 7, 200, 201, BLOCK])
    @pytest.mark.parametrize("m", LAW_ORDERS)
    def test_bin_law_matches_betainc(self, m, bins):
        # 201 bins put a central bin across 0.  betainc itself is the
        # looser side: at m = 0 it reads ~7e-14 off arcsin's exact bin
        # masses next to the centre of 2**14 bins
        edges = _edges(m, bins)
        p = sg._bin_law(m, edges)
        assert np.max(np.abs(p - _betainc_law(m, edges))) <= 1e-13
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_bin_law_approaches_the_limit_law(self):
        # as m grows, |z|/k -> e^{-G} with G ~ Gamma(1/2, 1), so
        # P(|z|/k <= t) -> erfc(sqrt(-ln t)); the distance is ~7e-3 / m
        m = 10**6
        edges = _edges(m, 200)
        with np.errstate(divide="ignore"):  # t = 0 at the centre edge
            inner = special.erfc(np.sqrt(-np.log(np.abs(edges) / edges[-1])))
        cdf = np.where(edges < 0, 0.5 * (1.0 - inner), 0.5 * (1.0 + inner))
        assert np.max(np.abs(sg._bin_law(m, edges) - np.diff(cdf))) <= 1e-8

    @pytest.mark.parametrize("bins", [1, 200, BLOCK])
    @pytest.mark.parametrize("m", [0, 1, 2**52 - 1])
    def test_histogram_is_one_multinomial_draw(self, m, bins, monkeypatch):
        # from the caller's generator: no child stream and no thread
        def no_thread(first, second):
            raise AssertionError("displacement_histogram started a thread")

        monkeypatch.setattr(streams, "_two_threads", no_thread)
        n = 10**7
        rng, ref = stream(13, "sg-multinomial", m), stream(13, "sg-multinomial", m)
        edges, counts = sg.displacement_histogram(sg.ApparatusConfig(m=m), n, rng, bins)
        assert np.array_equal(edges, _edges(m, bins))
        assert np.array_equal(counts, ref.multinomial(n, sg._bin_law(m, edges)))
        assert int(counts.sum()) == n
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert rng.random() == ref.random()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bins", [200, BLOCK])
    @pytest.mark.parametrize("m", LAW_ORDERS)
    def test_histogram_matches_bin_law(self, m, bins):
        # Pearson's chi^2 of the sampled displacements, in the sampler's own
        # 200 bins and in 2**14
        n = 2 * 10**6
        config = sg.ApparatusConfig(m=m)
        dz, edges, counts = sg.displacement_distribution(
            m, config, n, stream(13, "sg-law", m)
        )
        if bins != 200:
            edges = _edges(m, bins)
            counts = np.histogram(dz, edges)[0]
        expected = n * _betainc_law(m, edges)
        assert expected.min() >= 5  # Pearson's statistic is chi^2 distributed
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert stats.chi2.sf(chi2, bins - 1) > 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", LAW_ORDERS)
    def test_density_is_finite_at_every_order(self, m):
        k = sg.displacement(0.0, m, 1.0)
        z = np.linspace(-k, k, 2001)
        density = sg.displacement_density(z, m, 1.0)
        assert np.all(np.isfinite(density))
        assert np.all(density[1:-1] > 0)
        assert density[0] == density[-1] == 0.0

    @pytest.mark.parametrize("m", [1, 3])
    def test_density_keeps_its_values(self, m):
        # 1 - x^2 by expm1 of the log, against the power form it replaced
        k = sg.displacement(0.0, m, 1.0)
        z = np.linspace(-k, k, 2001)[1:-1]
        x = np.sign(z) * (np.abs(z) / k) ** (1.0 / (2 * m + 1))
        z_m = om.normalization_constant(m)
        expected = 1.0 / (z_m * k * (2 * m + 1) * np.sqrt(1.0 - x**2))
        np.testing.assert_allclose(
            sg.displacement_density(z, m, 1.0), expected, rtol=1e-12, atol=0
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2**52 - 1])
    def test_density_keeps_the_distance_from_the_edge(self, m):
        # at the last float below k, a rounded z/k would lose k - z; the
        # reference takes log(z/k) in 60-digit decimals
        k = sg.displacement(0.0, m, 1.0)
        z = np.nextafter(k, 0.0)
        with decimal.localcontext() as context:
            context.prec = 60
            log_fraction = (decimal.Decimal(z) / decimal.Decimal(k)).ln()
            sin2 = float(1 - (2 * log_fraction / (2 * m + 1)).exp())
        z_m = om.normalization_constant(m)
        expected = 1.0 / (z_m * k * (2 * m + 1) * math.sqrt(sin2))
        density = sg.displacement_density([-z, z], m, 1.0)
        np.testing.assert_allclose(density, expected, rtol=1e-14, atol=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_displacement_magnitude_bounded(m):
    rng = stream(5, "sg-bound", m)
    thetas = rng.uniform(0.0, math.pi, 100)
    dz = sg.displacement(thetas, m, 1.0)
    assert np.all(np.abs(dz) <= sg.displacement(0.0, m, 1.0) + 1e-15)
