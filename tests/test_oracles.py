import numpy as np
import pytest

from infocoupling import (
    ChannelMatrix,
    Distribution,
    SearchBudget,
    ace_correlation,
    brute_broadcast,
    brute_p2p,
    build_dtm,
    instances,
    s_ratio_search,
    solve_broadcast,
    strong_dpi_coefficient,
    valid_plane_basis,
)
from infocoupling.errors import DimensionMismatchError, ResolutionError, SingularWeightError


def dtm_from_joint(joint):
    px = Distribution(joint.sum(axis=1))
    w = ChannelMatrix((joint / joint.sum(axis=1)[:, np.newaxis]).T)
    return build_dtm(w, px)


class TestSearchBudget:
    def test_resolution_floor(self):
        with pytest.raises(ResolutionError):
            SearchBudget(grid_resolution=4)


class TestBruteP2P:
    def test_ternary_reaches_contraction(self, ternary_channel, ternary_point, ternary_dtm):
        budget = SearchBudget(grid_resolution=180, rng_seed=1)
        res = brute_p2p(ternary_channel, ternary_point, 1e-3, budget)
        assert res.best_ratio == pytest.approx(0.16, abs=1e-3)
        alignment = abs(float(res.best_direction @ ternary_dtm.right_vector(1)))
        assert alignment >= 1 - 1e-3

    def test_identity_ratio_one(self):
        budget = SearchBudget(grid_resolution=90, rng_seed=1)
        res = brute_p2p(instances.identity_channel(2), Distribution([0.5, 0.5]), 1e-3, budget)
        assert res.best_ratio == pytest.approx(1.0, abs=1e-6)

    def test_bsc_quarter(self):
        budget = SearchBudget(grid_resolution=90, rng_seed=1)
        res = brute_p2p(instances.bsc(0.25), Distribution([0.5, 0.5]), 1e-3, budget)
        assert res.best_ratio == pytest.approx(0.25, abs=1e-3)

    def test_never_beats_contraction_locally(self, rng):
        budget = SearchBudget(grid_resolution=60, rng_seed=1)
        for _ in range(20):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            px = instances.random_distribution(rng, nx)
            w = instances.random_channel(rng, nx, ny)
            dtm = build_dtm(w, px)
            res = brute_p2p(w, px, 1e-3, budget)
            assert res.best_ratio <= strong_dpi_coefficient(dtm) * (1 + 1e-2)

    def test_four_symbol_grid(self, rng):
        px = instances.random_distribution(rng, 4)
        w = instances.random_channel(rng, 4, 4)
        dtm = build_dtm(w, px)
        res = brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=64, rng_seed=1))
        coeff = strong_dpi_coefficient(dtm)
        assert coeff * (1 - 5e-3) <= res.best_ratio <= coeff * (1 + 1e-2)

    def test_alphabet_cap(self, rng):
        w = instances.random_channel(rng, 5, 5)
        px = instances.random_distribution(rng, 5)
        with pytest.raises(DimensionMismatchError):
            brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=16, rng_seed=1))

    def test_deterministic(self, ternary_channel, ternary_point):
        budget = SearchBudget(grid_resolution=90, rng_seed=5)
        a = brute_p2p(ternary_channel, ternary_point, 1e-3, budget)
        b = brute_p2p(ternary_channel, ternary_point, 1e-3, budget)
        assert a.best_ratio == b.best_ratio
        assert np.array_equal(a.best_direction, b.best_direction)


class TestAceCorrelation:
    def test_product_joint(self):
        joint = np.outer([0.3, 0.7], [0.4, 0.6])
        assert ace_correlation(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_binary(self):
        assert ace_correlation(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-10)

    def test_zero_marginal_rejected(self):
        joint = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(SingularWeightError):
            ace_correlation(joint)

    def test_matches_spectrum_on_ternary(self, ternary_channel, ternary_point):
        joint = instances.joint_from_channel(ternary_channel, ternary_point)
        assert ace_correlation(joint) == pytest.approx(0.4, abs=1e-8)

    def test_agreement_on_random_joints(self, rng):
        worst = 0.0
        for _ in range(100):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            joint = instances.random_joint(rng, nx, ny)
            worst = max(
                worst,
                abs(ace_correlation(joint) - dtm_from_joint(joint).second_singular_value),
            )
        assert worst <= 1e-8


class TestSRatioSearch:
    def test_identity(self):
        budget = SearchBudget(grid_resolution=24, rng_seed=2)
        res = s_ratio_search(instances.identity_channel(3), Distribution([1 / 3] * 3), budget)
        assert res.lower_bound == pytest.approx(1.0, abs=1e-6)

    def test_reaches_contraction(self, ternary_channel, ternary_point, ternary_dtm):
        budget = SearchBudget(grid_resolution=24, rng_seed=2)
        res = s_ratio_search(ternary_channel, ternary_point, budget)
        assert res.lower_bound >= strong_dpi_coefficient(ternary_dtm) - 1e-3

    def test_reaches_contraction_random(self, rng):
        budget = SearchBudget(grid_resolution=16, rng_seed=2)
        for _ in range(10):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            px = instances.random_distribution(rng, nx)
            w = instances.random_channel(rng, nx, ny)
            res = s_ratio_search(w, px, budget)
            assert res.lower_bound >= strong_dpi_coefficient(build_dtm(w, px)) - 1e-3

    def test_erasure_like_instance_reported(self):
        # no strictness assertion; just exercises the report fields
        w = ChannelMatrix(np.array([[0.8, 0.0], [0.0, 0.8], [0.2, 0.2]]))
        res = s_ratio_search(w, Distribution([0.5, 0.5]), SearchBudget(grid_resolution=32, rng_seed=2))
        assert res.lower_bound >= res.local_best - 1e-12
        assert res.nonlocal_best >= 0.0


class TestBruteBroadcast:
    def test_windmill(self, windmill_dtms):
        budget = SearchBudget(grid_resolution=180, rng_seed=3)
        res = brute_broadcast(windmill_dtms, budget)
        target = solve_broadcast(windmill_dtms).value
        assert abs(res.lambda_estimate - target) <= 1e-3

    def test_single_receiver(self, ternary_dtm):
        budget = SearchBudget(grid_resolution=180, rng_seed=3)
        res = brute_broadcast([ternary_dtm], budget)
        assert res.lambda_estimate == pytest.approx(0.16, abs=1e-3)

    def test_identical_receivers(self, ternary_dtm):
        budget = SearchBudget(grid_resolution=180, rng_seed=3)
        res = brute_broadcast([ternary_dtm, ternary_dtm], budget)
        assert res.lambda_estimate == pytest.approx(0.16, abs=1e-3)

    def test_binary_input_degenerate_plane(self):
        d1 = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        d2 = build_dtm(instances.bsc(0.2), Distribution([0.5, 0.5]))
        res = brute_broadcast([d1, d2], SearchBudget(grid_resolution=16, rng_seed=3))
        assert res.lambda_estimate == pytest.approx(0.36, abs=1e-12)

    def test_deterministic(self, windmill_dtms):
        budget = SearchBudget(grid_resolution=90, rng_seed=3)
        a = brute_broadcast(windmill_dtms, budget)
        b = brute_broadcast(windmill_dtms, budget)
        assert a.lambda_estimate == b.lambda_estimate
        assert a.angles == b.angles and a.weights == b.weights

    def test_matches_solver_beyond_three_receivers(self, rng):
        for _ in range(30):
            k = int(rng.integers(4, 9))
            px = instances.random_distribution(rng, 3)
            dtms = [
                build_dtm(instances.random_channel(rng, 3, int(rng.integers(2, 6))), px)
                for _ in range(k)
            ]
            res = brute_broadcast(dtms, SearchBudget(grid_resolution=8, rng_seed=3))
            assert abs(res.lambda_estimate - solve_broadcast(dtms).value) <= 1e-8

    def test_ensemble_realizes_estimate(self, rng, windmill_dtms):
        families = [windmill_dtms]
        for k in range(1, 9):
            px = instances.random_distribution(rng, 3)
            families.append([build_dtm(instances.random_channel(rng, 3, 4), px) for _ in range(k)])
        for dtms in families:
            res = brute_broadcast(dtms, SearchBudget(grid_resolution=8, rng_seed=3))
            assert len(res.angles) == len(res.weights) == 2
            assert min(res.weights) >= 0.0 and sum(res.weights) == pytest.approx(1.0, abs=1e-15)
            q = valid_plane_basis(dtms[0].input)
            dirs = [q @ np.array([np.cos(a), np.sin(a)]) for a in res.angles]
            realized = min(
                sum(w * float(np.sum((d.matrix @ v) ** 2)) for w, v in zip(res.weights, dirs))
                for d in dtms
            )
            assert abs(realized - res.lambda_estimate) <= 1e-12
