import tracemalloc

import numpy as np
import pytest

from infocoupling import (
    build_dtm,
    instances,
    kron,
    kron_pair_residual,
    lift_dtm,
    lifted_spectrum,
    product_form_projector,
    second_singular_of_power,
)
from infocoupling import tensor
from infocoupling.errors import CapacityError


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_permutation_structure(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = kron(np.eye(2), swap)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(out, expected)

    def test_mixed_product_identity(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            lhs = kron(a, b) @ np.kron(x, y)
            rhs = np.kron(a @ x, b @ y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            kron(np.ones((80, 80)), np.ones((80, 80)))


class TestLiftedPairs:
    def test_top_pair(self, ternary_dtm):
        assert kron_pair_residual(ternary_dtm, 0, 0) <= 1e-12

    def test_cross_pair_value_in_lift(self, ternary_dtm):
        # sigma_0 * sigma_1 = 2*eta appears in the two-letter spectrum
        assert kron_pair_residual(ternary_dtm, 0, 1) <= 1e-9
        values = lifted_spectrum(ternary_dtm, 2).singular_values
        assert np.min(np.abs(values - 0.4)) <= 1e-9

    def test_all_pairs_random_ternary(self, rng):
        worst = 0.0
        for _ in range(100):
            ny = int(rng.integers(2, 6))
            dtm = build_dtm(
                instances.random_channel(rng, 3, ny),
                instances.random_distribution(rng, 3),
            )
            m = len(dtm.spectrum)
            for i in range(m):
                for j in range(m):
                    worst = max(worst, kron_pair_residual(dtm, i, j))
        assert worst <= 1e-9

    def test_residual_never_builds_the_lift(self, ternary_dtm, monkeypatch):
        before = kron_pair_residual(ternary_dtm, 1, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("the Kronecker matrix was built")

        monkeypatch.setattr(tensor, "kron_power", refuse)
        assert kron_pair_residual(ternary_dtm, 1, 2) == before

    def test_product_multiset(self, rng):
        for _ in range(20):
            ny = int(rng.integers(2, 6))
            dtm = build_dtm(
                instances.random_channel(rng, 3, ny),
                instances.random_distribution(rng, 3),
            )
            lifted = np.sort(lifted_spectrum(dtm, 2).singular_values)
            s = dtm.singular_values
            products = np.sort(np.outer(s, s).ravel())
            k = min(lifted.size, products.size)
            assert np.max(np.abs(lifted[-k:] - products[-k:])) <= 1e-9


class TestSecondSingularOfPower:
    def test_single_letter(self, ternary_dtm):
        assert second_singular_of_power(ternary_dtm, 1) == pytest.approx(0.4, abs=1e-9)

    def test_tensorization_random(self, rng):
        for _ in range(50):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            dtm = build_dtm(
                instances.random_channel(rng, nx, ny),
                instances.random_distribution(rng, nx),
            )
            assert abs(
                second_singular_of_power(dtm, 2) - dtm.second_singular_value
            ) <= 1e-9

    def test_three_letters(self, ternary_dtm):
        assert second_singular_of_power(ternary_dtm, 3) == pytest.approx(0.4, abs=1e-9)

    def test_two_letter_tie_subspace(self, ternary_dtm):
        # the two-letter second value ties between the two cross products
        spec = lifted_spectrum(ternary_dtm, 2)
        values = spec.singular_values
        tied = np.abs(values - 0.4) <= 1e-9
        assert tied.sum() == 2
        v0 = ternary_dtm.right_vector(0)
        v1 = ternary_dtm.right_vector(1)
        span = np.stack([np.kron(v0, v1), np.kron(v1, v0)], axis=1)
        for col in np.nonzero(tied)[0]:
            vec = spec.right_vectors[:, col]
            coeff, *_ = np.linalg.lstsq(span, vec, rcond=None)
            assert np.linalg.norm(span @ coeff - vec) <= 1e-8

    def test_letter_cap(self, ternary_dtm):
        with pytest.raises(CapacityError):
            second_singular_of_power(ternary_dtm, 4)


class TestImplicitOperator:
    def test_matches_materialized(self, rng):
        dtm = build_dtm(
            instances.random_channel(rng, 3, 4), instances.random_distribution(rng, 3)
        )
        lift = lift_dtm(dtm, 3)
        for _ in range(50):
            vec = rng.standard_normal(27)
            assert np.max(np.abs(lift.apply(vec) - lift.matrix @ vec)) <= 1e-11


class TestProductFormProjector:
    def test_single_active_letter_inside(self, ternary_dtm):
        v0 = ternary_dtm.right_vector(0)
        v1 = ternary_dtm.right_vector(1)
        dec = product_form_projector(np.kron(v0, v1), v0)
        assert dec.residual <= 1e-12

    def test_double_active_letter_outside(self, ternary_dtm):
        v0 = ternary_dtm.right_vector(0)
        v1 = ternary_dtm.right_vector(1)
        dec = product_form_projector(np.kron(v1, v1), v0)
        assert dec.residual == pytest.approx(1.0, abs=1e-10)

    def test_two_letter_optimum_has_product_form(self, ternary_dtm):
        spec = lifted_spectrum(ternary_dtm, 2)
        psi = spec.right_vectors[:, 1]
        dec = product_form_projector(psi, ternary_dtm.right_vector(0))
        assert dec.residual <= 1e-8


class TestReadOnlyResults:
    def test_lift_and_decomposition_reject_writes(self, ternary_dtm):
        # a write to the cached lift used to change every later read of it
        lift = lift_dtm(ternary_dtm, 2)
        before = lift.matrix.copy()
        v0 = ternary_dtm.right_vector(0)
        dec = product_form_projector(np.kron(v0, ternary_dtm.right_vector(1)), v0)
        with pytest.raises(ValueError):
            lift.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            dec.components[0, 0] = 5.0
        assert np.array_equal(lift.matrix, before)


class TestLiftAboveCap:
    def test_apply_works_and_matrix_refuses(self, rng):
        # 17**3 = 4913 input letters: above the Kronecker cap of 4096
        dtm = build_dtm(instances.random_channel(rng, 17, 3), instances.random_distribution(rng, 17))
        lift = lift_dtm(dtm, 3)
        v = dtm.right_vector(1)
        w = dtm.matrix @ v
        out = lift.apply(np.kron(np.kron(v, v), v))
        assert np.max(np.abs(out - np.kron(np.kron(w, w), w))) <= 1e-12
        with pytest.raises(CapacityError):
            lift.matrix

    def test_matrix_formed_once(self, ternary_dtm):
        lift = lift_dtm(ternary_dtm, 2)
        assert lift.matrix is lift.matrix
        assert np.array_equal(lift.matrix, np.kron(ternary_dtm.matrix, ternary_dtm.matrix))

    def test_refused_before_any_power_is_formed(self, ternary_dtm):
        # 3**8 = 6561 letters, above the cap: refused before the 2187 x 2187 power
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                lift_dtm(ternary_dtm, 8).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
