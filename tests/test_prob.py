import math

import numpy as np
import pytest

from infocoupling import (
    ConditionalFamily,
    Distribution,
    Perturbation,
    apply_perturbation,
    from_weighted,
    instances,
    kl_divergence,
    local_kl,
    mutual_information,
    to_weighted,
    weighted_inner,
)
from infocoupling.prob import record
from infocoupling.errors import (
    DimensionMismatchError,
    InvalidDistributionError,
    SingularWeightError,
)

TERNARY_P = np.array([0.5, 0.25, 0.25])
TERNARY_J = np.array([0.5, -0.25, -0.25])


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            Distribution([0.5, 0.6, -0.1])

    def test_rejects_bad_sum_without_renormalizing(self):
        with pytest.raises(InvalidDistributionError):
            Distribution([0.5, 0.6])

    def test_rejects_non_finite(self):
        for probs in ([np.nan, 0.5], [np.inf, 0.0], [0.5, 0.5, np.nan]):
            with pytest.raises(InvalidDistributionError):
                Distribution(probs)

    def test_allows_zeros(self):
        d = Distribution([1.0, 0.0])
        assert not d.strictly_positive
        with pytest.raises(SingularWeightError):
            d.require_strictly_positive()

    def test_immutable(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Distribution([0.5, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        p = Distribution([1.0, 0.0])
        q = Distribution([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-15)

    def test_support_violation_is_inf(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([1.0, 0.0])
        assert kl_divergence(p, q) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(Distribution([1.0]), Distribution([0.5, 0.5]))


class TestLocalKl:
    def test_zero_direction(self):
        pert = Perturbation(Distribution(TERNARY_P), np.zeros(3), 0.3)
        assert local_kl(pert) == 0.0

    def test_unit_weighted_norm(self):
        # sum J^2/P = 0.25/0.5 + 0.0625/0.25 + 0.0625/0.25 = 1
        for eps in (0.1, 0.02):
            pert = Perturbation(Distribution(TERNARY_P), TERNARY_J, eps)
            assert local_kl(pert) == pytest.approx(0.5 * eps**2, rel=1e-12)

    def test_cubic_remainder_against_exact(self):
        eps = 1e-2
        pert = Perturbation(Distribution(TERNARY_P), TERNARY_J, eps)
        exact = kl_divergence(
            Distribution(TERNARY_P), apply_perturbation(pert)
        )
        # kl(P || P + eps J): note the approximation is symmetric at this order
        assert abs(local_kl(pert) - exact) <= 5 * eps**3

    def test_zero_base_entry_rejected(self):
        pert = Perturbation(Distribution([1.0, 0.0]), np.array([0.5, -0.5]), 0.1)
        with pytest.raises(SingularWeightError):
            local_kl(pert)


class TestWeightedGeometry:
    def test_zero_vectors(self):
        ref = Distribution([0.25, 0.5, 0.25])
        assert weighted_inner(np.zeros(3), np.zeros(3), ref) == 0.0

    def test_hand_inner_product(self):
        ref = Distribution([1 / 3, 1 / 3, 1 / 3])
        j1 = np.array([1.0, -1.0, 0.0])
        j2 = np.array([0.0, 1.0, -1.0])
        assert weighted_inner(j1, j2, ref) == pytest.approx(-3.0, abs=1e-12)

    def test_inner_matches_weighted_coordinates(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            ref = instances.random_distribution(rng, n)
            j = rng.standard_normal(n)
            j -= j.mean()
            psi = to_weighted(j, ref)
            assert weighted_inner(j, j, ref) == pytest.approx(
                float(psi.coords @ psi.coords), abs=1e-12, rel=1e-12
            )

    def test_ternary_weighted_form(self):
        psi = to_weighted(TERNARY_J, Distribution(TERNARY_P))
        assert np.allclose(psi.coords, [1 / math.sqrt(2), -0.5, -0.5], atol=1e-15)

    def test_round_trip(self, rng):
        from infocoupling import WeightedVector

        for _ in range(100):
            n = int(rng.integers(2, 7))
            ref = instances.random_distribution(rng, n)
            j = rng.standard_normal(n)
            back = from_weighted(to_weighted(j, ref))
            assert np.max(np.abs(back - j)) <= 1e-12
            psi = rng.standard_normal(n)
            again = to_weighted(from_weighted(WeightedVector(psi, ref)), ref)
            assert np.max(np.abs(again.coords - psi)) <= 1e-12

    def test_zero_weight_rejected(self):
        ref = Distribution([1.0, 0.0])
        with pytest.raises(SingularWeightError):
            to_weighted(np.array([0.1, -0.1]), ref)


class TestMutualInformation:
    def test_independent_family_is_zero(self):
        marginal = Distribution([0.3, 0.7])
        fam = ConditionalFamily(Distribution([0.4, 0.6]), (marginal, marginal))
        assert mutual_information(fam, marginal) == 0.0

    def test_local_quadratic_value(self):
        eps = 1e-3
        base = Distribution(TERNARY_P)
        j = TERNARY_J  # unit weighted norm
        fam = ConditionalFamily(
            Distribution([0.5, 0.5]),
            (Distribution(TERNARY_P + eps * j), Distribution(TERNARY_P - eps * j)),
        )
        assert mutual_information(fam, base) == pytest.approx(0.5 * eps**2, abs=1e-8)

    def test_deterministic_binary_is_ln2(self):
        fam = ConditionalFamily(
            Distribution([0.5, 0.5]),
            (Distribution([1.0, 0.0]), Distribution([0.0, 1.0])),
        )
        assert mutual_information(fam, Distribution([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_support_violation_is_inf(self):
        fam = ConditionalFamily(
            Distribution([0.5, 0.5]),
            (Distribution([1.0, 0.0]), Distribution([0.0, 1.0])),
        )
        assert mutual_information(fam, Distribution([1.0, 0.0])) == math.inf

    def test_nonnegative_and_zero_iff_degenerate(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            u = instances.random_distribution(rng, 2)
            k0 = instances.random_distribution(rng, n)
            k1 = instances.random_distribution(rng, n)
            fam = ConditionalFamily(u, (k0, k1))
            mix = fam.mixture()
            mi = mutual_information(fam, mix)
            assert mi >= 0
            spread = float(np.max(np.abs(k0.probs - k1.probs)))
            if mi <= 1e-14:
                assert spread <= 1e-6


class TestApplyPerturbation:
    def test_zero_scale_returns_base(self):
        base = Distribution(TERNARY_P)
        out = apply_perturbation(Perturbation(base, TERNARY_J, 0.0))
        assert np.array_equal(out.probs, base.probs)

    def test_full_scale_reaches_vertex(self):
        out = apply_perturbation(Perturbation(Distribution(TERNARY_P), TERNARY_J, 1.0))
        assert np.max(np.abs(out.probs - [1.0, 0.0, 0.0])) <= 1e-12

    def test_overshoot_reports_index(self):
        with pytest.raises(InvalidDistributionError) as err:
            apply_perturbation(Perturbation(Distribution(TERNARY_P), TERNARY_J, 3.0))
        assert err.value.index is not None

    def test_direction_must_be_zero_sum(self):
        with pytest.raises(InvalidDistributionError):
            Perturbation(Distribution(TERNARY_P), np.array([0.1, 0.0, 0.0]), 1.0)


class TestLocalApproximationQuality:
    def test_cubic_decay_ratio(self):
        # err(eps)/err(eps/2) sits in [5, 12] when the cubic term dominates
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            px = instances.random_distribution(rng, n)
            psi = instances.random_unit_direction(rng, px)
            j = psi * px.sqrt()
            for eps in (1e-2, 5e-3):
                e_full = abs(
                    kl_divergence(Distribution(px.probs + eps * j), px) - 0.5 * eps**2
                )
                e_half = abs(
                    kl_divergence(Distribution(px.probs + 0.5 * eps * j), px)
                    - 0.5 * (0.5 * eps) ** 2
                )
                assert 5.0 <= e_full / e_half <= 12.0

    def test_asymmetry_vanishes_cubically(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            px = instances.random_distribution(rng, n)
            psi = instances.random_unit_direction(rng, px)
            j = psi * px.sqrt()
            # fit the cubic constant at the largest scale; a factor-2 margin
            # absorbs the quartic drift while a genuine quadratic term would
            # still overshoot it down the ladder
            eps0 = 2e-2
            q0 = Distribution(px.probs + eps0 * j)
            c = abs(kl_divergence(px, q0) - kl_divergence(q0, px)) / eps0**3
            for eps in (1e-2, 5e-3):
                q = Distribution(px.probs + eps * j)
                gap = abs(kl_divergence(px, q) - kl_divergence(q, px))
                assert gap <= (2.0 * c + 1e-9) * eps**3


class TestRecord:
    def test_arrays_frozen_before_the_own_check(self):
        seen = []

        @record("values")
        class Pair:
            values: np.ndarray
            label: str

            def __post_init__(self):
                seen.append((self.values.dtype, self.values.flags.writeable))

        source = np.array([1, 2])
        pair = Pair(source, "a")
        assert seen == [(np.dtype(float), False)]
        source[0] = 7
        assert pair.values.tolist() == [1.0, 2.0]
        with pytest.raises(AttributeError):
            pair.label = "b"
        assert pair != Pair(source, "a")  # identity, not value, equality

    def test_without_own_check(self):
        @record("values")
        class Only:
            values: np.ndarray

        assert not Only([0.5]).values.flags.writeable
