import itertools
import math
import tracemalloc

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
from infocoupling.oracles import SLAB_PAIRS, _direction_grid


def dtm_from_joint(joint):
    px = Distribution(joint.sum(axis=1))
    w = ChannelMatrix((joint / joint.sum(axis=1)[:, np.newaxis]).T)
    return build_dtm(w, px)


def _kl_rows(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q[np.newaxis, :]), 0.0)
    return terms.sum(axis=1)


def _ignores_input(w):
    """Equal columns: every family's output information is exactly 0."""
    return np.ptp(w.entries, axis=1).max() == 0


def _reference_brute_p2p(w, px, epsilon, resolution):
    """``brute_p2p`` with one row per direction and row-wise divergences;
    returns ``(best_ratio, best_direction)``."""
    q = valid_plane_basis(px)
    psis = _direction_grid(q.shape[1], resolution) @ q.T
    j_dirs = psis * px.sqrt()[np.newaxis, :]
    p_plus = px.probs[np.newaxis, :] + epsilon * j_dirs
    p_minus = px.probs[np.newaxis, :] - epsilon * j_dirs
    valid = (p_plus.min(axis=1) >= 0) & (p_minus.min(axis=1) >= 0)
    py = w.entries @ px.probs
    ix = 0.5 * (_kl_rows(p_plus, px.probs) + _kl_rows(p_minus, px.probs))
    iy = 0.5 * (_kl_rows(p_plus @ w.entries.T, py) + _kl_rows(p_minus @ w.entries.T, py))
    if _ignores_input(w):
        iy = np.zeros_like(ix)
    ratio = np.where(valid & (ix > 0), iy / np.where(ix > 0, ix, 1.0), -np.inf)
    j = int(np.argmax(ratio))
    return float(ratio[j]), psis[j]


def _reference_s_ratio(w, px, resolution):
    """``s_ratio_search`` as a loop over the mixture weights with one row
    per kernel; returns ``(lower_bound, nonlocal_best, local_best)``."""
    n = w.input_size
    pts = []
    for combo in itertools.combinations(range(resolution + n - 1), n - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + n - 2 - prev)
        pts.append(parts)
    kernels = np.asarray(pts, dtype=float) / resolution
    py = w.entries @ px.probs
    dx0 = _kl_rows(kernels, px.probs)
    dy0 = _kl_rows(kernels @ w.entries.T, py)
    best = 0.0
    for i in range(1, resolution):
        alpha = i / resolution
        q1 = (px.probs[np.newaxis, :] - alpha * kernels) / (1.0 - alpha)
        ok = q1.min(axis=1) >= -1e-15
        if not np.any(ok):
            continue
        q1 = np.clip(q1, 0.0, None)
        ix = alpha * dx0 + (1 - alpha) * _kl_rows(q1, px.probs)
        iy = alpha * dy0 + (1 - alpha) * _kl_rows(q1 @ w.entries.T, py)
        if _ignores_input(w):
            iy = np.zeros_like(ix)
        ratio = np.where(ok & (ix > 1e-15), iy / np.where(ix > 0, ix, 1.0), -np.inf)
        best = max(best, float(ratio.max()))
    local = _reference_brute_p2p(w, px, 1e-3, max(resolution, 360))[0]
    return max(best, local), best, local


def _s_ratio_fields(res):
    return res.lower_bound, res.nonlocal_best, res.local_best


def _sparse_family(rng, n):
    """A random operating point and channel with about a third of its
    entries zero (erasure-like columns included)."""
    ny = int(rng.integers(1, 6))
    cols = rng.random((ny, n)) * (rng.random((ny, n)) > 0.35)
    cols[:, cols.sum(axis=0) == 0] = 1.0
    return ChannelMatrix(cols / cols.sum(axis=0)), instances.random_distribution(rng, n)


class TestSearchBudget:
    def test_resolution_floor(self):
        with pytest.raises(ResolutionError):
            SearchBudget(grid_resolution=4)

    def test_numpy_integer_resolution(self, ternary_channel, ternary_point):
        a = s_ratio_search(ternary_channel, ternary_point, SearchBudget(grid_resolution=np.int64(16)))
        b = s_ratio_search(ternary_channel, ternary_point, SearchBudget(grid_resolution=16))
        assert a == b


class TestBruteP2P:
    def test_ternary_reaches_contraction(self, ternary_channel, ternary_point, ternary_dtm):
        budget = SearchBudget(grid_resolution=180)
        res = brute_p2p(ternary_channel, ternary_point, 1e-3, budget)
        assert res.best_ratio == pytest.approx(0.16, abs=1e-3)
        alignment = abs(float(res.best_direction @ ternary_dtm.right_vector(1)))
        assert alignment >= 1 - 1e-3

    def test_identity_ratio_one(self):
        budget = SearchBudget(grid_resolution=90)
        res = brute_p2p(instances.identity_channel(2), Distribution([0.5, 0.5]), 1e-3, budget)
        assert res.best_ratio == pytest.approx(1.0, abs=1e-6)

    def test_bsc_quarter(self):
        budget = SearchBudget(grid_resolution=90)
        res = brute_p2p(instances.bsc(0.25), Distribution([0.5, 0.5]), 1e-3, budget)
        assert res.best_ratio == pytest.approx(0.25, abs=1e-3)

    def test_never_beats_contraction_locally(self, rng):
        budget = SearchBudget(grid_resolution=60)
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
        res = brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=64))
        coeff = strong_dpi_coefficient(dtm)
        assert coeff * (1 - 5e-3) <= res.best_ratio <= coeff * (1 + 1e-2)

    def test_alphabet_cap(self, rng):
        w = instances.random_channel(rng, 5, 5)
        px = instances.random_distribution(rng, 5)
        with pytest.raises(DimensionMismatchError):
            brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=16))

    @pytest.mark.parametrize("n, resolution", [(2, 8), (2, 90), (3, 24), (3, 180), (4, 8), (4, 32)])
    @pytest.mark.parametrize("epsilon", [1e-3, 0.1])
    def test_matches_row_reference_bit_for_bit(self, n, resolution, epsilon):
        rng = np.random.default_rng(10 * n + resolution)
        for _ in range(5):
            w, px = _sparse_family(rng, n)
            got = brute_p2p(w, px, epsilon, SearchBudget(grid_resolution=resolution))
            ratio, direction = _reference_brute_p2p(w, px, epsilon, resolution)
            assert got.best_ratio == ratio
            assert np.array_equal(got.best_direction, direction)

    @pytest.mark.parametrize(
        "column, point, epsilon",
        [
            ([1.0], [0.4, 0.3, 0.2, 0.1], 1e-3),
            ([1.0], [0.1, 0.2, 0.3, 0.4], 0.2),
            ([0.3, 0.7], [0.4, 0.3, 0.2, 0.1], 1e-3),
        ],
    )
    def test_equal_columns_carry_no_information(self, column, point, epsilon):
        # roundoff in the output divergences must not read as information
        w = ChannelMatrix(np.tile(np.array(column)[:, np.newaxis], len(point)))
        res = brute_p2p(w, Distribution(point), epsilon, SearchBudget(grid_resolution=64))
        assert res.best_ratio == 0.0

    def test_deterministic(self, ternary_channel, ternary_point):
        budget = SearchBudget(grid_resolution=90)
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
        budget = SearchBudget(grid_resolution=24)
        res = s_ratio_search(instances.identity_channel(3), Distribution([1 / 3] * 3), budget)
        assert res.lower_bound == pytest.approx(1.0, abs=1e-6)

    def test_reaches_contraction(self, ternary_channel, ternary_point, ternary_dtm):
        budget = SearchBudget(grid_resolution=24)
        res = s_ratio_search(ternary_channel, ternary_point, budget)
        assert res.lower_bound >= strong_dpi_coefficient(ternary_dtm) - 1e-3

    def test_reaches_contraction_random(self, rng):
        budget = SearchBudget(grid_resolution=16)
        for _ in range(10):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            px = instances.random_distribution(rng, nx)
            w = instances.random_channel(rng, nx, ny)
            res = s_ratio_search(w, px, budget)
            assert res.lower_bound >= strong_dpi_coefficient(build_dtm(w, px)) - 1e-3

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("resolution", [8, 13, 24, 40, 64])
    def test_matches_loop_bit_for_bit(self, n, resolution):
        rng = np.random.default_rng(100 * n + resolution)
        for _ in range(6):
            w, px = _sparse_family(rng, n)
            got = s_ratio_search(w, px, SearchBudget(grid_resolution=resolution))
            assert _s_ratio_fields(got) == _reference_s_ratio(w, px, resolution)

    @pytest.mark.parametrize(
        "entries, point",
        [
            ([[0.8, 0.0], [0.0, 0.8], [0.2, 0.2]], [0.5, 0.5]),
            ([[0.7, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.7], [0.3, 0.3, 0.3]], [0.2, 0.3, 0.5]),
        ],
    )
    def test_erasure_matches_loop(self, entries, point):
        w, px = ChannelMatrix(np.array(entries)), Distribution(point)
        got = s_ratio_search(w, px, SearchBudget(grid_resolution=32))
        assert _s_ratio_fields(got) == _reference_s_ratio(w, px, 32)

    def test_several_slabs_match_loop(self):
        resolution = 160
        assert SLAB_PAIRS // math.comb(resolution + 2, 2) < resolution - 1  # weights per slab
        w, px = _sparse_family(np.random.default_rng(160), 3)
        got = s_ratio_search(w, px, SearchBudget(grid_resolution=resolution))
        assert _s_ratio_fields(got) == _reference_s_ratio(w, px, resolution)

    def test_peak_memory_stays_flat(self, ternary_channel, ternary_point):
        # 199 weights x 20,301 kernels: one unsliced pass would need hundreds of MB
        tracemalloc.start()
        try:
            s_ratio_search(ternary_channel, ternary_point, SearchBudget(grid_resolution=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("column", [[1.0], [0.3, 0.7]])
    def test_equal_columns_carry_no_information(self, column):
        w = ChannelMatrix(np.tile(np.array(column)[:, np.newaxis], 3))
        res = s_ratio_search(w, Distribution([0.5, 0.3, 0.2]), SearchBudget(grid_resolution=24))
        assert _s_ratio_fields(res) == (0.0, 0.0, 0.0)

    def test_erasure_like_instance_reported(self):
        # no strictness assertion; just exercises the report fields
        w = ChannelMatrix(np.array([[0.8, 0.0], [0.0, 0.8], [0.2, 0.2]]))
        res = s_ratio_search(w, Distribution([0.5, 0.5]), SearchBudget(grid_resolution=32))
        assert res.lower_bound >= res.local_best - 1e-12
        assert res.nonlocal_best >= 0.0


class TestBruteBroadcast:
    def test_windmill(self, windmill_dtms):
        budget = SearchBudget(grid_resolution=180)
        res = brute_broadcast(windmill_dtms, budget)
        target = solve_broadcast(windmill_dtms).value
        assert abs(res.lambda_estimate - target) <= 1e-3

    def test_single_receiver(self, ternary_dtm):
        budget = SearchBudget(grid_resolution=180)
        res = brute_broadcast([ternary_dtm], budget)
        assert res.lambda_estimate == pytest.approx(0.16, abs=1e-3)

    def test_identical_receivers(self, ternary_dtm):
        budget = SearchBudget(grid_resolution=180)
        res = brute_broadcast([ternary_dtm, ternary_dtm], budget)
        assert res.lambda_estimate == pytest.approx(0.16, abs=1e-3)

    def test_binary_input_degenerate_plane(self):
        d1 = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        d2 = build_dtm(instances.bsc(0.2), Distribution([0.5, 0.5]))
        res = brute_broadcast([d1, d2], SearchBudget(grid_resolution=16))
        assert res.lambda_estimate == pytest.approx(0.36, abs=1e-12)

    def test_deterministic(self, windmill_dtms):
        budget = SearchBudget(grid_resolution=90)
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
            res = brute_broadcast(dtms, SearchBudget(grid_resolution=8))
            assert abs(res.lambda_estimate - solve_broadcast(dtms).value) <= 1e-8

    def test_ensemble_realizes_estimate(self, rng, windmill_dtms):
        families = [windmill_dtms]
        for k in range(1, 9):
            px = instances.random_distribution(rng, 3)
            families.append([build_dtm(instances.random_channel(rng, 3, 4), px) for _ in range(k)])
        for dtms in families:
            res = brute_broadcast(dtms, SearchBudget(grid_resolution=8))
            assert len(res.angles) == len(res.weights) == 2
            assert min(res.weights) >= 0.0 and sum(res.weights) == pytest.approx(1.0, abs=1e-15)
            q = valid_plane_basis(dtms[0].input)
            dirs = [q @ np.array([np.cos(a), np.sin(a)]) for a in res.angles]
            realized = min(
                sum(w * float(np.sum((d.matrix @ v) ** 2)) for w, v in zip(res.weights, dirs))
                for d in dtms
            )
            assert abs(realized - res.lambda_estimate) <= 1e-12
