import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmodel import qm_oracle as qm

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


class TestSpinors:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qm.Spinor2(1.0, 1.0)

    @given(angles)
    def test_rotated_states_are_orthogonal(self, beta):
        up = qm.rotated_up_state(beta)
        down = qm.rotated_down_state(beta)
        assert abs(up.inner(down)) < 1e-12

    @given(angles, angles)
    def test_up_down_probabilities_sum_to_one(self, b1, b2):
        total = qm.overlap_prob(b1, b2) + qm.overlap_prob_down(b1, b2)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(angles, angles)
    def test_overlap_closed_form(self, b1, b2):
        assert qm.overlap_prob(b1, b2) == pytest.approx(
            math.cos((b2 - b1) / 2.0) ** 2, abs=1e-12
        )


class TestBellStates:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            qm.bell_state("psi_zero")

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            qm.PairState((1.0, 1.0, 0.0, 0.0))

    def test_rejects_three_amplitudes(self):
        with pytest.raises(ValueError, match="need four amplitudes"):
            qm.PairState((1.0, 0.0, 0.0))

    @given(angles, angles)
    def test_singlet_closed_form(self, a, b):
        assert qm.singlet_correlation(a, b) == pytest.approx(
            -math.cos(a - b), abs=1e-12
        )

    @given(angles, angles)
    def test_triplet_closed_forms(self, a, b):
        assert qm.bell_correlation(qm.TRIPLET_PSI_PLUS, a, b) == pytest.approx(
            -math.cos(a + b), abs=1e-12
        )
        assert qm.bell_correlation(qm.TRIPLET_PHI_MINUS, a, b) == pytest.approx(
            math.cos(a + b), abs=1e-12
        )
        assert qm.bell_correlation(qm.TRIPLET_PHI_PLUS, a, b) == pytest.approx(
            math.cos(a - b), abs=1e-12
        )

    def test_perfect_anticorrelation_same_axis(self):
        for angle in (0.0, 0.7, math.pi / 2):
            assert qm.singlet_correlation(angle, angle) == pytest.approx(-1.0)

    def test_canonical_chsh_is_tsirelson_bound(self):
        s = qm.chsh_statistic(
            qm.SINGLET, 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
        )
        assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    @given(angles, angles, angles, angles)
    def test_chsh_below_tsirelson(self, a, ap, b, bp):
        for kind in qm.BELL_KINDS:
            s = qm.chsh_statistic(kind, a, ap, b, bp)
            assert s <= 2.0 * math.sqrt(2.0) + 1e-9
