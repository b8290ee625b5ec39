"""Karlin–Altschul statistics: published values and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import DNA
from repro.blast.karlin import (
    GAPPED_TABLE,
    KarlinError,
    KarlinParams,
    ROBINSON_FREQS,
    effective_search_space,
    gapped_params,
    karlin_params,
    length_adjustment,
    score_distribution,
)
from repro.blast.matrices import blosum62, dna_matrix


class TestParamsMemo:
    def test_same_scoring_system_is_solved_once(self, monkeypatch):
        from repro.blast import karlin

        solves = []
        real = karlin._karlin_k
        monkeypatch.setattr(
            karlin, "_karlin_k",
            lambda *a: solves.append(1) or real(*a),
        )
        m = dna_matrix(2, -7)  # no other test uses this one
        first = karlin_params(m, alphabet=DNA)
        assert karlin_params(m.copy(), alphabet=DNA) is first
        assert len(solves) == 1
        # another composition or another matrix is another entry
        skew = np.array([0.4, 0.1, 0.1, 0.4])
        assert karlin_params(m, skew, alphabet=DNA) != first
        assert karlin_params(dna_matrix(2, -6), alphabet=DNA) != first
        assert len(solves) == 3

    def test_errors_are_not_cached(self):
        m = np.full((24, 24), -1, dtype=np.int64)
        for _ in range(2):
            with pytest.raises(KarlinError):
                karlin_params(m)


class TestPublishedValues:
    """Our computation must reproduce NCBI's published parameters."""

    def test_blosum62_ungapped(self):
        p = karlin_params(blosum62())
        assert p.lam == pytest.approx(0.3176, abs=0.0005)
        assert p.K == pytest.approx(0.134, abs=0.002)
        assert p.H == pytest.approx(0.4012, abs=0.0010)

    def test_dna_plus1_minus3(self):
        p = karlin_params(dna_matrix(1, -3), alphabet=DNA)
        assert p.lam == pytest.approx(1.374, abs=0.001)
        assert p.K == pytest.approx(0.711, abs=0.002)

    def test_dna_plus1_minus2_analytic(self):
        # For +1/-2 at uniform composition λ solves
        # 0.25·e^λ + 0.75·e^{-2λ} = 1 exactly.
        p = karlin_params(dna_matrix(1, -2), alphabet=DNA)
        assert 0.25 * math.exp(p.lam) + 0.75 * math.exp(-2 * p.lam) == (
            pytest.approx(1.0, abs=1e-9)
        )
        assert 0 < p.K < 1

    def test_blosum62_gapped_11_1_table(self):
        p = gapped_params("BLOSUM62", 11, 1)
        assert (p.lam, p.K, p.H) == (0.267, 0.0410, 0.1400)
        assert p.gapped


class TestRobinsonFrequencies:
    def test_sum_to_one(self):
        assert ROBINSON_FREQS.sum() == pytest.approx(1.0, abs=0.001)

    def test_all_positive_20(self):
        assert ROBINSON_FREQS.shape == (20,)
        assert (ROBINSON_FREQS > 0).all()

    def test_leucine_most_common(self):
        assert ROBINSON_FREQS.argmax() == 10  # L


class TestScoreDistribution:
    def test_sums_to_one(self):
        probs, low = score_distribution(blosum62(), ROBINSON_FREQS, 20)
        assert probs.sum() == pytest.approx(1.0)
        assert low == -4

    def test_expected_score_negative(self):
        probs, low = score_distribution(blosum62(), ROBINSON_FREQS, 20)
        scores = np.arange(low, low + probs.size)
        assert float(probs @ scores) < 0

    def test_all_positive_matrix_rejected(self):
        m = np.ones((20, 20), dtype=np.int32)
        with pytest.raises(KarlinError):
            karlin_params(m)

    def test_positive_expectation_rejected(self):
        m = dna_matrix(3, -1)  # E[s] = 0.75*(-1)*... = 3/4*(-1)+... > 0
        with pytest.raises(KarlinError):
            karlin_params(m, alphabet=DNA)


class TestLambdaProperties:
    def test_phi_at_lambda_is_one(self):
        p = karlin_params(blosum62())
        probs, low = score_distribution(blosum62(), ROBINSON_FREQS, 20)
        scores = np.arange(low, low + probs.size)
        assert float(probs @ np.exp(p.lam * scores)) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=-8, max_value=-1))
    @settings(max_examples=25, deadline=None)
    def test_two_point_lambda_closed_form(self, match, mismatch):
        """For match/mismatch scoring with uniform composition, λ has a
        closed form when E[s] < 0."""
        p_match = 0.25
        es = p_match * match + (1 - p_match) * mismatch
        if es >= 0:
            return
        p = karlin_params(dna_matrix(match, mismatch), alphabet=DNA)
        probs = np.array([1 - p_match, p_match])
        scores = np.array([mismatch, match], dtype=float)
        assert float(probs @ np.exp(p.lam * scores)) == pytest.approx(
            1.0, abs=1e-6
        )


class TestEvalueBitScore:
    def test_bit_score_monotone_in_raw(self):
        p = karlin_params(blosum62())
        assert p.bit_score(100) < p.bit_score(200)

    def test_evalue_decreases_with_score(self):
        p = karlin_params(blosum62())
        assert p.evalue(100, 1e9) > p.evalue(150, 1e9)

    def test_evalue_linear_in_space(self):
        p = karlin_params(blosum62())
        assert p.evalue(100, 2e9) == pytest.approx(2 * p.evalue(100, 1e9))

    def test_raw_score_for_evalue_inverts(self):
        p = karlin_params(blosum62())
        s = p.raw_score_for_evalue(10.0, 1e9)
        assert p.evalue(s, 1e9) == pytest.approx(10.0, rel=1e-9)

    def test_bit_score_evalue_consistency(self):
        """E = m'n' * 2^-S' must match the raw formula."""
        p = karlin_params(blosum62())
        space = 3.7e9
        raw = 123
        via_bits = space * 2.0 ** (-p.bit_score(raw))
        assert p.evalue(raw, space) == pytest.approx(via_bits, rel=1e-12)


class TestGappedFallback:
    def test_unknown_combo_falls_back_to_ungapped(self):
        ug = karlin_params(blosum62())
        p = gapped_params("BLOSUM62", 97, 13, ungapped=ug)
        assert p.lam == ug.lam and p.K == ug.K and p.gapped

    def test_unknown_combo_without_fallback_raises(self):
        with pytest.raises(KarlinError):
            gapped_params("BLOSUM62", 97, 13)

    def test_table_entries_positive(self):
        for lam, k, h in GAPPED_TABLE.values():
            assert lam > 0 and 0 < k < 1 and h > 0


class TestLengthAdjustment:
    def test_positive_and_smaller_than_query(self):
        p = gapped_params("BLOSUM62", 11, 1)
        ell = length_adjustment(p, 300, 10_000_000, 30_000)
        assert 0 < ell < 300

    def test_grows_with_db(self):
        p = gapped_params("BLOSUM62", 11, 1)
        small = length_adjustment(p, 300, 1_000_000, 3_000)
        big = length_adjustment(p, 300, 1_000_000_000, 3_000_000)
        assert big > small

    def test_effective_space_positive(self):
        p = gapped_params("BLOSUM62", 11, 1)
        assert effective_search_space(p, 300, 10_000_000, 30_000) > 0

    def test_effective_space_smaller_than_raw(self):
        p = gapped_params("BLOSUM62", 11, 1)
        assert effective_search_space(p, 300, 10_000_000, 30_000) < 300 * 1e7

    def test_bad_args_raise(self):
        p = gapped_params("BLOSUM62", 11, 1)
        with pytest.raises(ValueError):
            length_adjustment(p, 0, 100, 1)


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_evalue_properties(lam, k):
    p = KarlinParams(lam=lam, K=k, H=0.4)
    assert p.evalue(50, 1e6) > p.evalue(60, 1e6) > 0
    assert p.bit_score(60) > p.bit_score(50)
