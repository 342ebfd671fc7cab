import itertools
import math

import numpy as np
import pytest

from infocoupling import (
    DiagonalInstance,
    Distribution,
    PerturbationEnsemble,
    build_dtm,
    build_mac_dtms,
    diagonal_maxmin,
    from_weighted,
    instances,
    mac_marginal_channels,
    mac_tensorization_check,
    solve_broadcast,
    solve_broadcast_single_direction,
    solve_mac_common,
    solve_p2p,
    split_rate_region,
    superposition_information,
    valid_plane_basis,
)
from infocoupling import coupling
from infocoupling.coupling import (
    ASCENT_SWEEPS,
    CG_GAP,
    VALUE_ATOL,
    _ascend,
    _circle_candidates,
    _plane_forms,
    _tangents,
    _worst_values,
)
from infocoupling.errors import (
    DegenerateOutputError,
    DimensionMismatchError,
    InfeasibleError,
    InputMismatchError,
)
from infocoupling.oracles import SearchBudget, brute_broadcast

WINDMILL_SIGMA_SQ = (2.0 / 3.0) * 0.64  # delta = 0.1


class TestSolveP2P:
    def test_ternary_direction(self, ternary_dtm):
        sol = solve_p2p(ternary_dtm, 0.01)
        j = from_weighted(sol.ensemble.directions[0])
        assert np.max(np.abs(j - [0.5, -0.25, -0.25])) <= 1e-9
        assert not sol.ambiguous

    def test_identity_rate(self):
        dtm = build_dtm(instances.identity_channel(2), Distribution([0.5, 0.5]))
        sol = solve_p2p(dtm, 0.2)
        assert sol.rate == pytest.approx(0.5 * 0.2**2, abs=1e-12)

    def test_bsc_rate(self):
        dtm = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        sol = solve_p2p(dtm, 0.01)
        assert sol.rate == pytest.approx(3.2e-5, abs=1e-12)

    def test_tie_flag(self):
        dtm = build_dtm(instances.identity_channel(3), Distribution([1 / 3] * 3))
        assert solve_p2p(dtm, 0.1).ambiguous

    def test_ensemble_is_valid_by_construction(self, ternary_dtm):
        ens = solve_p2p(ternary_dtm, 0.01).ensemble
        fam = ens.conditional_family()
        fam.assert_marginal(ternary_dtm.input)


class TestSolveBroadcast:
    def test_single_receiver_degenerates_to_p2p(self, ternary_dtm):
        sol = solve_broadcast([ternary_dtm])
        assert sol.value == pytest.approx(0.16, abs=1e-9)

    def test_windmill_value_and_certificate(self, windmill_dtms):
        sol = solve_broadcast(windmill_dtms)
        assert sol.value == pytest.approx(0.5 * WINDMILL_SIGMA_SQ, abs=1e-6)
        assert np.max(np.abs(sol.dual_weights - 1 / 3)) <= 1e-3
        assert sol.gap <= 1e-7

    def test_identical_receivers(self, ternary_dtm):
        sol = solve_broadcast([ternary_dtm, ternary_dtm])
        assert sol.value == pytest.approx(0.16, abs=1e-7)

    def test_never_beats_best_private(self, rng):
        for _ in range(10):
            nx = int(rng.integers(2, 8))
            k = int(rng.integers(2, 9))
            px = instances.random_distribution(rng, nx)
            dtms = [
                build_dtm(instances.random_channel(rng, nx, int(rng.integers(2, 6))), px)
                for _ in range(k)
            ]
            sol = solve_broadcast(dtms)
            assert sol.value <= min(d.second_singular_value for d in dtms) ** 2 + 1e-9
            assert sol.gap <= 1e-7
            assert float(sol.system_values.min()) >= sol.value - 1e-12

    def test_gram_properties(self, windmill_dtms):
        sol = solve_broadcast(windmill_dtms)
        eigs = np.linalg.eigvalsh(sol.gram)
        assert eigs.min() >= -1e-10
        assert abs(np.trace(sol.gram) - 1) <= 1e-9
        v0 = windmill_dtms[0].input.sqrt()
        assert np.max(np.abs(sol.gram @ v0)) <= 1e-9
        rank = int(np.sum(eigs > 1e-8))
        assert rank <= len(windmill_dtms)

    def test_ensemble_realizes_gram(self, windmill_dtms):
        sol = solve_broadcast(windmill_dtms)
        assert sol.cardinality <= 2 * len(windmill_dtms)
        assert np.max(np.abs(sol.ensemble.gram() - sol.gram)) <= 1e-9

    def test_ensemble_constraints_hold_numerically(self, windmill_dtms):
        ens = solve_broadcast(windmill_dtms).ensemble
        pu = ens.u_law.probs
        coords = np.stack([d.coords for d in ens.directions])
        assert abs(float(pu @ np.sum(coords**2, axis=1)) - 1.0) <= 1e-9
        v0 = ens.reference.sqrt()
        assert float(np.max(np.abs(coords @ v0))) <= 1e-9
        assert float(np.max(np.abs(pu @ coords))) <= 1e-9
        ens.conditional_family(1e-3).assert_marginal(ens.reference)

    def test_mismatched_inputs_rejected(self, ternary_dtm, rng):
        other = build_dtm(
            instances.random_channel(rng, 3, 3), instances.random_distribution(rng, 3)
        )
        with pytest.raises(InputMismatchError):
            solve_broadcast([ternary_dtm, other])

    def test_receiver_count_bounds(self, ternary_dtm):
        with pytest.raises(InputMismatchError):
            solve_broadcast([ternary_dtm] * 9)


class TestSingleDirection:
    def test_windmill_bound(self, windmill_dtms):
        sd = solve_broadcast_single_direction(windmill_dtms)
        assert sd.value <= 0.25 * WINDMILL_SIGMA_SQ + 1e-6
        assert sd.value == pytest.approx(0.25 * WINDMILL_SIGMA_SQ, abs=1e-6)
        assert sd.optimality_gap == 0.0

    def test_single_receiver(self, ternary_dtm):
        sd = solve_broadcast_single_direction([ternary_dtm])
        assert sd.value == pytest.approx(0.16, abs=1e-9)

    def test_two_receivers_single_letter_suffices(self, rng):
        for _ in range(10):
            nx = int(rng.integers(2, 5))
            px = instances.random_distribution(rng, nx)
            dtms = [
                build_dtm(instances.random_channel(rng, nx, int(rng.integers(2, 5))), px)
                for _ in range(2)
            ]
            sol = solve_broadcast(dtms)
            sd = solve_broadcast_single_direction(dtms)
            assert sd.value <= sol.value + 1e-9
            assert abs(sd.value - sol.value) <= 1e-6

    def test_windmill_needs_multiple_directions(self, windmill_dtms):
        # strict advantage of the ensemble over any single direction
        sol = solve_broadcast(windmill_dtms)
        sd = solve_broadcast_single_direction(windmill_dtms)
        assert sol.value - sd.value >= 0.1 * WINDMILL_SIGMA_SQ


def _random_family(rng, nx, k):
    px = instances.random_distribution(rng, nx)
    return [
        build_dtm(instances.random_channel(rng, nx, int(rng.integers(2, 6))), px)
        for _ in range(k)
    ]


def _grid_check(dtms, directions):
    """Best worst value over unit plane directions (rows), and its
    Lipschitz constant per radian on the sphere: along a great circle
    each ``u^T H u`` oscillates with amplitude at most half the spread of
    ``H``'s eigenvalues at twice the angle, so it moves by at most the
    largest eigenvalue per radian, and so does their minimum."""
    q = valid_plane_basis(dtms[0].input)
    forms = np.stack([q.T @ d.matrix.T @ d.matrix @ q for d in dtms])
    values = np.einsum("jd,kde,je->jk", directions, forms, directions).min(axis=1)
    return float(values.max()), float(np.linalg.eigvalsh(forms).max())


class TestSingleDirectionExact:
    def test_circle_matches_dense_grid(self, rng):
        theta = np.linspace(0.0, math.pi, 20_000, endpoint=False)
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        for k in range(1, 9):
            for _ in range(5):
                dtms = _random_family(rng, 3, k)
                sd = solve_broadcast_single_direction(dtms)
                best, lipschitz = _grid_check(dtms, circle)
                assert sd.optimality_gap == 0.0
                assert best - 1e-12 <= sd.value <= best + lipschitz * 0.5 * math.pi / 20_000

    def test_rank_one_gram_gives_relaxation_value(self, rng):
        found = 0
        for _ in range(30):
            dtms = _random_family(rng, 4, int(rng.integers(1, 9)))
            sol = solve_broadcast(dtms)
            if np.linalg.eigvalsh(sol.gram)[-2] > 1e-9:
                continue
            found += 1
            sd = solve_broadcast_single_direction(dtms)
            assert abs(sd.value - sol.value) <= 1e-7
            assert sd.optimality_gap <= 1e-7
        assert found >= 5

    def test_beats_dense_sphere_grid(self, rng):
        n = 300
        tt, pp = np.meshgrid(
            np.linspace(0.0, math.pi, n, endpoint=False),
            np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False),
            indexing="ij",
        )
        sphere = np.stack(
            [np.cos(tt), np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp)], axis=-1
        ).reshape(-1, 3)
        ranks = set()
        for _ in range(20):
            dtms = _random_family(rng, 4, int(rng.integers(2, 9)))
            ranks.add(bool(np.linalg.eigvalsh(solve_broadcast(dtms).gram)[-2] > 1e-9))
            sd = solve_broadcast_single_direction(dtms)
            best, lipschitz = _grid_check(dtms, sphere)
            # every point of the sphere lies within h / sqrt(2) of the grid
            assert sd.value >= best - lipschitz * math.pi / n / math.sqrt(2.0)
        assert ranks == {False, True}

    def test_tied_directions_do_not_depend_on_receiver_order(self, windmill_dtms):
        # the windmill ties three directions; the lexicographically largest
        # signed one is returned whatever the order of the receivers
        for order in itertools.permutations(range(3)):
            sd = solve_broadcast_single_direction([windmill_dtms[i] for i in order])
            assert np.max(np.abs(sd.psi - [0.5**0.5, 0.0, -(0.5**0.5)])) <= 1e-12

    def test_never_above_dual_value(self, rng, windmill_dtms):
        families = [windmill_dtms] + [
            _random_family(rng, nx, k) for nx in (2, 3, 4, 5, 6) for k in (1, 3, 8)
        ]
        for dtms in families:
            sol = solve_broadcast(dtms)
            sd = solve_broadcast_single_direction(dtms)
            assert sd.value <= sol.dual_value + 1e-12
            exact = dtms[0].input.alphabet_size <= 3
            assert sd.optimality_gap == (0.0 if exact else max(sol.dual_value - sd.value, 0.0))
            assert abs(np.linalg.norm(sd.psi) - 1.0) <= 1e-12
            assert abs(float(sd.psi @ dtms[0].input.sqrt())) <= 1e-12


def _reference_ascend(forms, c):
    """The sequential ascent: one great-circle search per tangent, in
    order, each from the point the last gain reached."""

    def best_on_circle(planes):
        x = np.vstack([[1.0, 0.0], _circle_candidates(planes)[2]])
        x = x[np.all(np.isfinite(x), axis=1)]
        t = 0.5 * np.arctan2(x[:, 1], x[:, 0])
        us = np.stack([np.cos(t), np.sin(t)], axis=1)
        return us[int(np.argmax(_worst_values(planes, us)))]

    value = _worst_values(forms, c[np.newaxis])[0]
    for _ in range(ASCENT_SWEEPS):
        start = value
        for t in _tangents(forms, c):
            basis = np.linalg.qr(np.stack([c, t], axis=1))[0]
            cand = basis @ best_on_circle(basis.T @ forms @ basis)
            cand /= np.linalg.norm(cand)
            v = _worst_values(forms, cand[np.newaxis])[0]
            if v > value:
                c, value = cand, v
        if value - start <= VALUE_ATOL:
            break
    return c


class TestAscentWork:
    def test_batched_ascent_follows_the_sequential_one(self):
        rng = np.random.default_rng(31)
        for _ in range(16):
            forms = _plane_forms(_random_family(rng, int(rng.integers(4, 8)), int(rng.integers(2, 9))))[2]
            start = rng.standard_normal(forms.shape[1])
            start /= np.linalg.norm(start)
            # an infinite bound never certifies, so only the sweeps stop it
            got, want = _ascend(forms, start, math.inf), _reference_ascend(forms, start)
            assert np.max(np.abs(got - want)) <= 1e-12
            values = _worst_values(forms, np.stack([got, want]))
            assert abs(values[0] - values[1]) <= 1e-14

    @staticmethod
    def _count_tangent_calls(monkeypatch):
        calls = []

        def counted(forms, c):
            calls.append(c)
            return tangents(forms, c)

        tangents = coupling._tangents
        monkeypatch.setattr(coupling, "_tangents", counted)
        return calls

    def test_rank_one_relaxation_takes_no_step(self, monkeypatch):
        calls = self._count_tangent_calls(monkeypatch)
        rng = np.random.default_rng(32)
        found = 0
        for _ in range(40):
            dtms = _random_family(rng, int(rng.integers(4, 8)), int(rng.integers(1, 9)))
            sol = solve_broadcast(dtms)
            if np.linalg.eigvalsh(sol.gram)[-2] > 1e-9:
                continue
            found += 1
            assert solve_broadcast_single_direction(dtms, sol).optimality_gap <= CG_GAP
        assert found >= 5
        assert not calls

    def test_rank_two_relaxation_still_ascends(self, monkeypatch):
        calls = self._count_tangent_calls(monkeypatch)
        rng = np.random.default_rng(32)
        for _ in range(20):
            dtms = _random_family(rng, 5, 4)
            sol = solve_broadcast(dtms)
            eigenvalues = np.linalg.eigvalsh(sol.gram)
            if eigenvalues[-3] <= 1e-9 < eigenvalues[-2]:
                break
        else:
            pytest.fail("no rank-two relaxation among the seeded families")
        solve_broadcast_single_direction(dtms, sol)
        assert calls

    def test_one_eigh_call_per_pricing_round(self, rng, windmill_dtms, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        families = [windmill_dtms] + [
            _random_family(rng, int(rng.integers(2, 8)), int(rng.integers(1, 9))) for _ in range(10)
        ]
        for dtms in families:
            calls.clear()
            sol = solve_broadcast(dtms)
            # the start columns, one stacked call per round, the final Gram
            assert len(calls) == sol.rounds + 2
            assert calls[0][0] == len(dtms)


class TestDiagonalMaxMin:
    def test_single_system_picks_largest_entry(self):
        inst = DiagonalInstance((np.array([0.3, 0.9, 0.5]),))
        res = diagonal_maxmin(inst)
        assert res.support == (1,)
        assert res.value == pytest.approx(0.81, abs=1e-9)

    def test_crossing_pair_against_sparse_enumeration(self, rng):
        for _ in range(20):
            t1 = rng.uniform(0.1, 1.0, 5)
            t2 = rng.uniform(0.1, 1.0, 5)
            res = diagonal_maxmin(DiagonalInstance((t1, t2)))
            assert len(res.support) <= 2
            # brute force over coordinate pairs: on each pair the max-min of
            # two linear functions of the squared weight is piecewise linear
            best = 0.0
            s1, s2 = t1**2, t2**2
            for i in range(5):
                for j in range(5):
                    for t in np.linspace(0.0, 1.0, 2001):
                        v = min(
                            s1[i] * t + s1[j] * (1 - t), s2[i] * t + s2[j] * (1 - t)
                        )
                        best = max(best, v)
            assert res.value >= best - 1e-9
            assert res.value <= best + 1e-3

    def test_windmill_diagonalized_matches_solver(self, windmill_dtms):
        # gains of the three receiver-optimal directions under each system
        from infocoupling.coupling import valid_plane_basis

        px = windmill_dtms[0].input
        q = valid_plane_basis(px)
        h_list = [q.T @ d.matrix.T @ d.matrix @ q for d in windmill_dtms]
        dirs = []
        for h in h_list:
            _, vecs = np.linalg.eigh(h)
            dirs.append(vecs[:, -1])
        thetas = tuple(
            np.sqrt(np.array([float(c @ h @ c) for c in dirs])) for h in h_list
        )
        res = diagonal_maxmin(DiagonalInstance(thetas))
        lam = solve_broadcast(windmill_dtms).value
        assert res.value == pytest.approx(lam, abs=1e-6)

    def test_equality_constrained_variant(self):
        t1 = np.array([1.0, 0.5, 0.1])
        t2 = np.array([0.2, 0.8, 0.9])
        levels = [0.5]
        res = diagonal_maxmin(DiagonalInstance((t1, t2)), target_levels=levels)
        s = res.c_star**2
        assert float(t1**2 @ s) == pytest.approx(0.5, abs=1e-9)
        assert len(res.support) <= 2

    def test_infeasible_levels(self):
        t1 = np.array([0.3, 0.2])
        with pytest.raises(InfeasibleError):
            diagonal_maxmin(DiagonalInstance((t1, t1)), target_levels=[5.0])


class TestMacCommon:
    def test_adder_channel(self):
        dtms = build_mac_dtms(instances.binary_adder_joint(), instances.binary_adder_inputs())
        sol = solve_mac_common(dtms)
        assert abs(sol.sigma_common - 1.0) <= 1e-10
        target = np.array([0.5, -0.5, 0.5, -0.5])
        err = min(
            np.max(np.abs(sol.stacked_vector - target)),
            np.max(np.abs(sol.stacked_vector + target)),
        )
        assert err <= 1e-10
        assert np.max(np.abs(sol.private_sigmas - 1 / math.sqrt(2))) <= 1e-10
        assert sol.gain_db == pytest.approx(3.0103, abs=1e-3)
        assert np.max(np.abs(sol.block_orthogonality_residuals)) <= 1e-8

    def test_stacked_vector_is_unit(self):
        dtms = build_mac_dtms(instances.binary_adder_joint(), instances.binary_adder_inputs())
        sol = solve_mac_common(dtms)
        assert abs(np.linalg.norm(sol.stacked_vector) - 1.0) <= 1e-10

    def test_adder_marginal_channels(self):
        chans, py = mac_marginal_channels(
            instances.binary_adder_joint(), instances.binary_adder_inputs()
        )
        assert np.max(np.abs(py.probs - [0.25, 0.5, 0.25])) <= 1e-12
        expected = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        assert np.max(np.abs(chans[0].entries - expected)) <= 1e-12

    def test_joint_within_tolerance_is_renormalized(self):
        joint = instances.binary_adder_joint()
        joint[0, 0, 0] += 1e-10
        dtms = build_mac_dtms(joint, instances.binary_adder_inputs())
        sol = solve_mac_common(dtms)
        assert abs(sol.sigma_common - 1.0) <= 1e-9
        assert sol.gain_db == pytest.approx(3.0103, abs=1e-3)

    def test_single_transmitter(self, rng):
        joint = rng.dirichlet(np.ones(4), size=3).T  # (y=4... build explicitly
        joint = np.moveaxis(rng.dirichlet(np.ones(4), size=3), 1, 0)  # (4, 3)
        dists = [instances.random_distribution(rng, 3)]
        dtms = build_mac_dtms(joint, dists)
        sol = solve_mac_common(dtms)
        assert sol.sigma_common == pytest.approx(dtms[0].second_singular_value, abs=1e-12)
        assert sol.gain_db == pytest.approx(0.0, abs=1e-9)

    def test_common_beats_private(self, rng):
        for _ in range(10):
            joint = np.moveaxis(rng.dirichlet(np.ones(3), size=(2, 2)), 2, 0)
            joint = (joint + 0.02) / (1 + 3 * 0.02)
            dists = [instances.random_distribution(rng, 2) for _ in range(2)]
            dtms = build_mac_dtms(joint, dists)
            sol = solve_mac_common(dtms)
            assert float(sol.private_sigmas.max()) <= sol.sigma_common + 1e-9
            assert np.max(np.abs(sol.block_orthogonality_residuals)) <= 1e-8

    def test_two_letter_consistency_random(self, rng):
        worst = 0.0
        for _ in range(50):
            joint = np.moveaxis(rng.dirichlet(np.ones(3), size=(2, 2)), 2, 0)
            joint = (joint + 0.02) / (1 + 3 * 0.02)
            dists = [instances.random_distribution(rng, 2) for _ in range(2)]
            dtms = build_mac_dtms(joint, dists)
            worst = max(worst, mac_tensorization_check(dtms))
        assert worst <= 1e-8

    def test_adder_two_letter_residual(self):
        dtms = build_mac_dtms(instances.binary_adder_joint(), instances.binary_adder_inputs())
        assert mac_tensorization_check(dtms) <= 1e-8

    def test_xor_is_degenerate(self):
        # Y = X1 xor X2 with uniform inputs: each input alone tells nothing
        # about Y, so every private coefficient and the common one are 0
        xor = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        dtms = build_mac_dtms(xor, [Distribution([0.5, 0.5])] * 2)
        with pytest.raises(DegenerateOutputError):
            solve_mac_common(dtms)

    def test_no_transmitters_rejected(self):
        for solver in (solve_mac_common, mac_tensorization_check):
            with pytest.raises(InputMismatchError):
                solver([])

    def test_mismatched_outputs_rejected(self, rng):
        d1 = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        d2 = build_dtm(instances.bsc(0.3), Distribution([0.3, 0.7]))
        with pytest.raises(InputMismatchError):
            solve_mac_common([d1, d2])


class TestSplitRateRegion:
    def test_all_common_split(self, ternary_dtm, rng):
        other = build_dtm(instances.random_channel(rng, 3, 3), ternary_dtm.input)
        eps_sq = 1e-4
        triples = split_rate_region(ternary_dtm, other, [(eps_sq, 0.0, 0.0)])
        r0, r1, r2 = triples[0]
        assert r0 > 0 and r1 == 0 and r2 == 0

    def test_identical_receivers_closed_form(self, ternary_dtm):
        splits = [(2e-4, 3e-4, 5e-4)]
        (r0, r1, r2), = split_rate_region(ternary_dtm, ternary_dtm, splits)
        assert r0 == pytest.approx(0.5 * 2e-4 * 0.16, rel=1e-6)
        assert r1 == pytest.approx(0.5 * 3e-4 * 0.16, rel=1e-9)
        assert r2 == pytest.approx(0.5 * 5e-4 * 0.16, rel=1e-9)

    def test_negative_split_rejected(self, ternary_dtm):
        with pytest.raises(InputMismatchError):
            split_rate_region(ternary_dtm, ternary_dtm, [(-1e-4, 0.0, 0.0)])


class TestSuperpositionInformation:
    def test_additivity_on_random_two_receiver_instances(self, rng):
        eps = 1e-3
        for _ in range(10):
            nx = int(rng.integers(2, 5))
            px = instances.random_distribution(rng, nx)
            dtms = [
                build_dtm(instances.random_channel(rng, nx, int(rng.integers(2, 5))), px)
                for _ in range(2)
            ]
            sol = solve_broadcast(dtms)
            families = [
                (
                    sol.ensemble.u_law.probs,
                    np.stack([from_weighted(d) for d in sol.ensemble.directions]),
                    0.6 * eps,
                )
            ]
            for dtm, scale in zip(dtms, (0.5 * eps, 0.4 * eps)):
                j = dtm.right_vector(1) * px.sqrt()
                families.append((np.array([0.5, 0.5]), np.stack([j, -j]), scale))
            info = superposition_information(px, families)
            target = 0.5 * ((0.6 * eps) ** 2 + (0.5 * eps) ** 2 + (0.4 * eps) ** 2)
            assert info == pytest.approx(target, rel=1e-2)


# total LP solves of solve_broadcast over the seed-2024 corpus below when
# every round priced at the LP's dual weights only
KELLEY_CORPUS_ROUNDS = 2222


class TestBroadcastRounds:
    def test_windmill_closes_in_first_round(self, windmill_dtms):
        sol = solve_broadcast(windmill_dtms)
        assert sol.rounds == 1
        assert sol.value == pytest.approx(0.213333, abs=1e-6)
        assert np.max(np.abs(sol.dual_weights - 1.0 / 3.0)) <= 1e-12

    def test_seeded_corpus_needs_at_most_sixty_percent_of_kelley_rounds(self):
        rng = np.random.default_rng(2024)
        total = 0
        for _ in range(150):
            k = rng.integers(1, 9)
            nx = rng.integers(2, 8)
            px = instances.random_distribution(rng, nx)
            chans = [instances.random_channel(rng, nx, rng.integers(2, 8)) for _ in range(k)]
            sol = solve_broadcast([build_dtm(w, px) for w in chans])
            assert sol.gap <= 1e-10
            total += sol.rounds
        assert total <= 0.6 * KELLEY_CORPUS_ROUNDS


class TestMismatchedAlphabets:
    def test_receivers_with_different_input_alphabets(self, ternary_dtm):
        binary = build_dtm(instances.bsc(0.1), Distribution([0.5, 0.5]))
        for dtms in ([binary, ternary_dtm], [ternary_dtm, binary]):
            with pytest.raises(InputMismatchError, match="input alphabet"):
                solve_broadcast(dtms)
            with pytest.raises(InputMismatchError, match="input alphabet"):
                solve_broadcast_single_direction(dtms)
            with pytest.raises(InputMismatchError, match="input alphabet"):
                brute_broadcast(dtms, SearchBudget(grid_resolution=8))

    def test_transmitters_with_different_output_alphabets(self, rng):
        px = Distribution([0.5, 0.5])
        dtms = [
            build_dtm(instances.bsc(0.1), px),
            build_dtm(instances.random_channel(rng, 2, 3), px),
        ]
        with pytest.raises(InputMismatchError, match="output alphabet"):
            solve_mac_common(dtms)
        with pytest.raises(InputMismatchError, match="output alphabet"):
            mac_tensorization_check(dtms)


class TestSingleDirectionReuse:
    def test_passed_solution_gives_identical_result(self, rng, monkeypatch):
        for nx in (4, 5, 6):
            for k in (1, 3, 8):
                dtms = _random_family(rng, nx, k)
                sol = solve_broadcast(dtms)
                fresh = solve_broadcast_single_direction(dtms)
                with monkeypatch.context() as m:
                    m.setattr("infocoupling.coupling.solve_broadcast", None)
                    reused = solve_broadcast_single_direction(dtms, sol)
                assert reused.value == fresh.value
                assert np.array_equal(reused.psi, fresh.psi)
                assert reused.optimality_gap == fresh.optimality_gap

    def test_solution_for_other_receivers_rejected(self, rng):
        dtms = _random_family(rng, 4, 3)
        sol = solve_broadcast(dtms[:2])
        with pytest.raises(InputMismatchError):
            solve_broadcast_single_direction(dtms, sol)


class TestEnsembleValidation:
    """Each check of ``PerturbationEnsemble``, on the ternary point with
    ``v0 = sqrt(P_X)`` and ``v1`` its best coupling direction."""

    @pytest.fixture
    def parts(self, ternary_dtm):
        return ternary_dtm.input, ternary_dtm.right_vector(0), ternary_dtm.right_vector(1)

    def test_antipodal_pair_is_valid(self, parts):
        px, _, v1 = parts
        ens = PerturbationEnsemble(Distribution([0.5, 0.5]), px, np.stack([v1, -v1]), 0.1)
        assert ens.cardinality == 2
        assert [d.reference for d in ens.directions] == [px, px]
        assert np.array_equal(np.stack([d.coords for d in ens.directions]), ens.coords)

    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 2)])
    def test_coords_shape(self, parts, rows, cols):
        px, _, v1 = parts
        coords = np.resize(np.stack([v1, -v1]), (rows, cols))
        with pytest.raises(DimensionMismatchError, match="coords shape"):
            PerturbationEnsemble(Distribution([0.5, 0.5]), px, coords, 0.1)

    def test_second_moment(self, parts):
        px, _, v1 = parts
        with pytest.raises(InputMismatchError, match="second moment"):
            PerturbationEnsemble(Distribution([0.5, 0.5]), px, np.stack([2 * v1, -2 * v1]), 0.1)

    def test_overlap_with_sqrt_px(self, parts):
        px, v0, v1 = parts
        u = (v0 + v1) / math.sqrt(2.0)  # unit norm, antipodal, so only the overlap is wrong
        with pytest.raises(InputMismatchError, match="overlaps"):
            PerturbationEnsemble(Distribution([0.5, 0.5]), px, np.stack([u, -u]), 0.1)

    def test_mean(self, parts):
        px, _, v1 = parts
        with pytest.raises(InputMismatchError, match="mean"):
            PerturbationEnsemble(Distribution([0.5, 0.5]), px, np.stack([v1, v1]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coords(self, parts, bad):
        px, _, v1 = parts
        coords = np.stack([v1, -v1])
        coords[0, 0] = bad
        with pytest.raises(InputMismatchError):
            PerturbationEnsemble(Distribution([0.5, 0.5]), px, coords, 0.1)

    def test_coords_are_read_only_copies(self, parts):
        px, _, v1 = parts
        coords = np.stack([v1, -v1])
        ens = PerturbationEnsemble(Distribution([0.5, 0.5]), px, coords, 0.1)
        coords[0] = 0.0
        assert np.array_equal(ens.coords[0], v1)
        with pytest.raises(ValueError):
            ens.coords[0, 0] = 0.0
