import dataclasses
import math

import numpy as np
import pytest

from infocoupling import (
    ChannelMatrix,
    ConditionalFamily,
    Distribution,
    build_dtm,
    instances,
    mutual_information,
    output_distribution,
    renyi_correlation,
    solve_p2p,
    strong_dpi_coefficient,
    valid_plane_basis,
    verify_top_singular,
)
from infocoupling.errors import DegenerateOutputError, DimensionMismatchError, SingularWeightError


class TestChannelMatrix:
    def test_columns_must_be_stochastic(self):
        with pytest.raises(DimensionMismatchError):
            ChannelMatrix([[0.5, 0.2], [0.4, 0.8]])

    def test_entries_must_be_probabilities(self):
        with pytest.raises(DimensionMismatchError):
            ChannelMatrix([[1.5, 0.0], [-0.5, 1.0]])

    def test_entries_must_be_finite(self):
        with pytest.raises(DimensionMismatchError):
            ChannelMatrix(np.full((2, 2), np.nan))
        with pytest.raises(DimensionMismatchError):
            ChannelMatrix([[np.nan, 0.0], [0.5, 1.0]])

    def test_output_distribution_identity(self):
        px = Distribution([0.3, 0.7])
        out = output_distribution(instances.identity_channel(2), px)
        assert np.array_equal(out.probs, px.probs)

    def test_output_distribution_ternary_fixed_point(self, ternary_channel, ternary_point):
        out = output_distribution(ternary_channel, ternary_point)
        assert np.max(np.abs(out.probs - [0.5, 0.25, 0.25])) <= 1e-12

    def test_output_distribution_bsc_hand_value(self):
        out = output_distribution(instances.bsc(0.1), Distribution([0.3, 0.7]))
        assert np.max(np.abs(out.probs - [0.34, 0.66])) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            output_distribution(instances.bsc(0.1), Distribution([1 / 3] * 3))


class TestBuildDtm:
    def test_ternary_closed_form_spectrum(self, ternary_dtm):
        # eta=0.2, gamma=0.1: singular values 1, 2*eta, (1+2*eta)*gamma
        assert np.max(np.abs(ternary_dtm.singular_values - [1.0, 0.4, 0.14])) <= 1e-9

    def test_ternary_right_vectors(self, ternary_dtm):
        s = 1 / math.sqrt(2)
        expected = np.array([[s, 0.5, 0.5], [s, -0.5, -0.5], [0.0, s, -s]])
        for i in range(3):
            v = ternary_dtm.right_vector(i)
            err = min(
                np.max(np.abs(v - expected[i])), np.max(np.abs(v + expected[i]))
            )
            assert err <= 1e-8

    def test_bsc_dtm_is_channel_matrix_at_uniform(self):
        p = 0.15
        dtm = build_dtm(instances.bsc(p), Distribution([0.5, 0.5]))
        assert np.max(np.abs(dtm.matrix - instances.bsc(p).entries)) <= 1e-12
        assert np.max(np.abs(dtm.singular_values - [1.0, 1 - 2 * p])) <= 1e-12

    def test_permutation_channel_all_ones(self, rng):
        perm = np.eye(4)[[2, 0, 3, 1]]
        px = instances.random_distribution(rng, 4)
        dtm = build_dtm(ChannelMatrix(perm), px)
        assert np.max(np.abs(dtm.singular_values - 1.0)) <= 1e-12

    def test_degenerate_output_rejected(self):
        w = ChannelMatrix([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateOutputError):
            build_dtm(w, Distribution([0.5, 0.5]))

    def test_single_symbol_alphabets(self):
        # one output symbol, then one input symbol: the spectrum is the top
        # pair alone and there is no coupling direction
        cases = [
            (ChannelMatrix([[1.0, 1.0, 1.0]]), Distribution([0.2, 0.3, 0.5])),
            (ChannelMatrix([[0.3], [0.7]]), Distribution([1.0])),
        ]
        for w, px in cases:
            dtm = build_dtm(w, px)
            assert np.max(np.abs(dtm.singular_values - [1.0])) <= 1e-12
            assert verify_top_singular(dtm).max_err <= 1e-12
            with pytest.raises(DimensionMismatchError):
                solve_p2p(dtm, 0.01)

    def test_zero_operating_point_rejected(self):
        with pytest.raises(SingularWeightError):
            build_dtm(instances.bsc(0.1), Distribution([1.0, 0.0]))

    def test_reconstruction(self, rng):
        for _ in range(50):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            dtm = build_dtm(
                instances.random_channel(rng, nx, ny),
                instances.random_distribution(rng, nx),
            )
            s = dtm.spectrum
            approx = (s.left_vectors * s.singular_values) @ s.right_vectors.T
            err = np.linalg.norm(dtm.matrix - approx)
            assert err <= 1e-9 * np.linalg.norm(dtm.matrix)

    def test_bit_identical_spectra(self, ternary_channel, ternary_point):
        a = build_dtm(ternary_channel, ternary_point)
        b = build_dtm(ternary_channel, ternary_point)
        assert a.singular_values.tobytes() == b.singular_values.tobytes()
        assert a.spectrum.right_vectors.tobytes() == b.spectrum.right_vectors.tobytes()
        assert a.spectrum.left_vectors.tobytes() == b.spectrum.left_vectors.tobytes()


class TestTopSingularPair:
    def test_random_channels(self, rng):
        for _ in range(200):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            dtm = build_dtm(
                instances.random_channel(rng, nx, ny),
                instances.random_distribution(rng, nx),
            )
            report = verify_top_singular(dtm)
            assert report.max_err <= 1e-9
            assert float(dtm.singular_values.max()) <= 1 + 1e-10

    def test_ternary_top_vector(self, ternary_dtm):
        v0 = ternary_dtm.right_vector(0)
        assert np.max(np.abs(v0 - [1 / math.sqrt(2), 0.5, 0.5])) <= 1e-9

    def test_detects_a_corrupted_matrix(self, ternary_dtm):
        # the top triple is pinned analytically, so only a residual against
        # the stored matrix can notice that the matrix is wrong
        bad = dataclasses.replace(ternary_dtm, matrix=ternary_dtm.matrix * 1.01)
        assert verify_top_singular(bad).max_err >= 1e-3


class TestValidPlaneSpectrum:
    def test_tied_top_pair_is_exact(self, rng):
        # a permutation channel ties every singular value at 1, so only the
        # analytic construction can return sqrt(P_X) and sqrt(P_Y) exactly
        for _ in range(100):
            n = int(rng.integers(2, 7))
            px = instances.random_distribution(rng, n)
            dtm = build_dtm(ChannelMatrix(np.eye(n)[rng.permutation(n)]), px)
            assert np.array_equal(dtm.right_vector(0), px.sqrt())
            assert np.array_equal(dtm.left_vector(0), dtm.output.sqrt())

    def test_vectors_orthonormal(self, rng):
        for i in range(100):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            if i % 2:
                w = instances.random_channel(rng, nx, ny)
            else:
                w = ChannelMatrix(np.eye(nx)[rng.permutation(nx)])
            dtm = build_dtm(w, instances.random_distribution(rng, nx))
            for vecs in (dtm.spectrum.right_vectors, dtm.spectrum.left_vectors):
                gram = vecs.T @ vecs
                assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12

    def test_basis_matches_null_space(self, rng):
        from scipy.linalg import null_space

        for _ in range(200):
            px = instances.random_distribution(rng, int(rng.integers(2, 9)))
            q = valid_plane_basis(px)
            assert np.max(np.abs(q - null_space(px.sqrt()[np.newaxis, :]))) <= 1e-12


class TestStrongDpi:
    def test_bsc(self):
        dtm = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        assert strong_dpi_coefficient(dtm) == pytest.approx(0.64, abs=1e-12)

    def test_ternary(self, ternary_dtm):
        assert strong_dpi_coefficient(ternary_dtm) == pytest.approx(0.16, abs=1e-9)

    def test_identity(self):
        dtm = build_dtm(instances.identity_channel(2), Distribution([0.5, 0.5]))
        assert strong_dpi_coefficient(dtm) == pytest.approx(1.0, abs=1e-12)

    def test_local_contraction_bound(self, rng):
        # exact ratio never beats the coefficient by more than 1% at eps=1e-3
        eps = 1e-3
        for _ in range(100):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            px = instances.random_distribution(rng, nx)
            w = instances.random_channel(rng, nx, ny)
            dtm = build_dtm(w, px)
            j = instances.random_unit_direction(rng, px) * px.sqrt()
            u = Distribution([0.5, 0.5])
            kern = (Distribution(px.probs + eps * j), Distribution(px.probs - eps * j))
            ix = mutual_information(ConditionalFamily(u, kern), px)
            iy = mutual_information(
                ConditionalFamily(u, tuple(output_distribution(w, k) for k in kern)),
                dtm.output,
            )
            assert iy <= strong_dpi_coefficient(dtm) * ix * (1 + 1e-2)


class TestRenyiCorrelation:
    def test_independent_pair_is_zero(self):
        w = ChannelMatrix([[0.3, 0.3], [0.7, 0.7]])
        dtm = build_dtm(w, Distribution([0.4, 0.6]))
        assert renyi_correlation(dtm).rho == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_binary_pair(self):
        p = 0.2
        dtm = build_dtm(instances.bsc(p), Distribution([0.5, 0.5]))
        assert renyi_correlation(dtm).rho == pytest.approx(1 - 2 * p, abs=1e-12)

    def test_function_normalization(self, rng):
        for _ in range(50):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = instances.random_distribution(rng, nx)
            dtm = build_dtm(instances.random_channel(rng, nx, ny), px)
            corr = renyi_correlation(dtm)
            assert abs(float(px.probs @ corr.f)) <= 1e-8
            assert abs(float(px.probs @ corr.f**2) - 1) <= 1e-8
            assert abs(float(dtm.output.probs @ corr.g)) <= 1e-8
            assert abs(float(dtm.output.probs @ corr.g**2) - 1) <= 1e-8

    def test_fixed_point_property(self, rng):
        for _ in range(50):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = instances.random_distribution(rng, nx)
            w = instances.random_channel(rng, nx, ny)
            dtm = build_dtm(w, px)
            corr = renyi_correlation(dtm)
            cond_exp = w.entries.T @ corr.g  # E[g(Y) | X = x]
            assert np.max(np.abs(cond_exp - corr.rho * corr.f)) <= 1e-7

    def test_tied_maximizer_flagged(self):
        dtm = build_dtm(instances.identity_channel(3), Distribution([1 / 3] * 3))
        assert renyi_correlation(dtm).ambiguous
