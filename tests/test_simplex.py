"""The package's dense simplex, against HiGHS and against its own
certificates."""

import numpy as np
import pytest

from infocoupling import ChannelMatrix, DiagonalInstance, Distribution, build_dtm, diagonal_maxmin, instances
from infocoupling.coupling import _maxmin_master, _maxmin_solve, _simplex, solve_broadcast
from infocoupling.errors import InfeasibleError


def maxmin_corpus():
    """Seeded rating matrices with every row count from 1 to 9 and 1 to
    202 columns, both ends included; of each five, one is plain and the
    others have tied ratings, duplicate columns, an all-zero row and
    all-equal ratings in turn."""
    rng = np.random.default_rng(11)
    corpus = []
    for i in range(300):
        k = 1 + i % 9
        n = {0: 1, 2: 101}.get(i % 50, int(rng.integers(1, 102)))
        ratings = rng.uniform(0.0, 1.0, (k, n))
        kind = i % 5
        if kind == 1:
            ratings = rng.integers(0, 4, (k, n)) / 3.0
        elif kind == 2:
            ratings = np.hstack([ratings, ratings[:, rng.permutation(n)]])
        elif kind == 3:
            ratings[rng.integers(k)] = 0.0
        elif kind == 4:
            ratings[:] = 0.5
        corpus.append(ratings)
    return corpus


CORPUS = maxmin_corpus()


def test_maxmin_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    for ratings in CORPUS:
        k, n = ratings.shape
        res = optimize.linprog(
            np.r_[np.zeros(n), -1.0],
            A_ub=np.hstack([-ratings, np.ones((k, 1))]),
            b_ub=np.zeros(k),
            A_eq=np.r_[np.ones(n), 0.0][np.newaxis],
            b_eq=[1.0],
            bounds=[(0, None)] * n + [(None, None)],
            method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert res.success
        p, _, _, _ = _maxmin_solve(*_maxmin_master(ratings))
        assert abs(float(np.min(ratings @ p)) + res.fun) <= 1e-10


def test_maxmin_certifies_itself():
    for ratings in CORPUS:
        p, w, basis, _ = _maxmin_solve(*_maxmin_master(ratings))
        for mix in (p, w):
            assert np.all(mix >= 0) and abs(mix.sum() - 1.0) <= 1e-12
        assert float(np.max(w @ ratings) - np.min(ratings @ p)) <= 1e-10
        assert np.count_nonzero(p) <= ratings.shape[0]
        assert len(basis) == ratings.shape[0] + 1


# Beale's example of cycling (min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 under two
# degenerate rows and x6 <= 1), its second row halved: the same LP, on which
# Dantzig's rule with the largest-pivot tie-break returns to its first basis
# after six pivots
BEALE_A = np.array(
    [
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
        [0.25, -6.0, -0.25, 1.5, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
)
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])


def test_beale_terminates():
    x, _, _, pivots = _simplex(BEALE_A, BEALE_B, BEALE_C, [4, 5, 6])
    assert float(BEALE_C @ x) == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(BEALE_A @ x, BEALE_B, atol=1e-12)
    assert pivots > 6


# a family Hypothesis found: late in its column generation two bases each
# price the other's entering column below -SIMPLEX_TOL, by roundoff alone,
# and the simplex pivoted between them until its budget ran out
ROUNDOFF_CYCLE_PX = [
    0.1146565112104811,
    0.26153562627052357,
    0.2989766143941601,
    0.06533886893455018,
    0.25949237919028506,
]
ROUNDOFF_CYCLE_CHANNELS = [
    [
        [0.3282051282051282, 0.8824601994110035, 0.799119353079437, 0.7611988925519083, 0.5330151862036577],
        [0.6717948717948717, 0.11753980058899646, 0.2008806469205629, 0.23880110744809174, 0.46698481379634216],
    ],
    [
        [0.4720887356761262, 0.19507507404668198, 0.22229520268113281, 0.32549443856824956, 0.303565494989746],
        [0.34945631019775747, 0.5161668525349699, 0.28227962245223215, 0.3369376024241646, 0.4215962084434751],
        [0.03134964260349275, 0.10728349704602667, 0.3880899009384162, 0.24412082892618717, 0.17925762164357975],
        [0.1471053115226236, 0.18147457637232156, 0.1073352739282187, 0.0934471300813987, 0.09558067492319909],
    ],
    [
        [0.07692307692307693, 0.07870692096044879, 0.2962962962962963, 0.36363636363636365, 0.10126582278481013],
        [0.3076923076923077, 0.31482768384179516, 0.14814814814814814, 0.18181818181818182, 0.4050632911392405],
        [0.3076923076923077, 0.31482768384179516, 0.2962962962962963, 0.36363636363636365, 0.4050632911392405],
        [0.3076923076923077, 0.29163771135596095, 0.25925925925925924, 0.09090909090909091, 0.08860759493670886],
    ],
    [
        [0.28995803914058016, 0.07454643962359524, 0.49710183799602137, 0.6363636363636364, 0.5],
        [0.7100419608594197, 0.9254535603764048, 0.5028981620039787, 0.36363636363636365, 0.5],
    ],
    [
        [0.5714285714285714, 0.5157579596271714, 0.2222222222222222, 0.5, 0.6607669616519174],
        [0.42857142857142855, 0.4842420403728287, 0.7777777777777778, 0.5, 0.3392330383480826],
    ],
    [
        [0.3923585369323086, 0.2, 0.7277140138796766, 0.7196477494263623, 0.5264715934875238],
        [0.6076414630676914, 0.8, 0.2722859861203234, 0.2803522505736376, 0.4735284065124762],
    ],
]


def test_roundoff_cycle_ends():
    px = Distribution(ROUNDOFF_CYCLE_PX)
    sol = solve_broadcast([build_dtm(ChannelMatrix(np.array(w)), px) for w in ROUNDOFF_CYCLE_CHANNELS])
    assert sol.gap <= 1e-10
    assert sol.pivots <= 10 * sol.rounds


def test_stale_basis_gives_the_cold_start_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k, n = int(rng.integers(2, 10)), int(rng.integers(2, 40))
        ratings = rng.uniform(0.0, 1.0, (k, n + 60))
        _, _, stale, _ = _maxmin_solve(*_maxmin_master(ratings[:, :n]))
        for more in (n + 1, n + 20, n + 60):
            cold, _, _, _ = _maxmin_solve(*_maxmin_master(ratings[:, :more]))
            warm, _, _, _ = _maxmin_solve(_maxmin_master(ratings[:, :more])[0], stale)
            assert abs(float(np.min(ratings[:, :more] @ warm) - np.min(ratings[:, :more] @ cold))) <= 1e-12


def test_one_basis_inversion_per_lp_round(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    rng = np.random.default_rng(2024)
    for _ in range(150):
        k = rng.integers(1, 9)
        nx = rng.integers(2, 8)
        px = instances.random_distribution(rng, nx)
        chans = [instances.random_channel(rng, nx, rng.integers(2, 8)) for _ in range(k)]
        calls.clear()
        sol = solve_broadcast([build_dtm(w, px) for w in chans])
        # each round inverts its starting basis once; its pivots update that inverse
        assert calls == [(k + 1, k + 1)] * sol.rounds


def test_equality_variant_reaches_levels_at_a_vertex():
    rng = np.random.default_rng(8)
    for _ in range(100):
        k, m = int(rng.integers(2, 7)), int(rng.integers(1, 15))
        thetas = rng.uniform(0.0, 1.0, (k, m))
        levels = thetas[:-1] ** 2 @ rng.dirichlet(np.ones(m))
        res = diagonal_maxmin(DiagonalInstance(tuple(thetas)), target_levels=levels)
        s = res.c_star**2
        assert np.max(np.abs(thetas[:-1] ** 2 @ s - levels)) <= 1e-9
        assert abs(s.sum() - 1.0) <= 1e-12
        assert len(res.support) <= k


@pytest.mark.parametrize("redundant", ["repeated", "flat"])
def test_equality_variant_with_a_redundant_row(redundant):
    # its phase 1 leaves an artificial column basic at 0 on the redundant row
    t1, t3 = np.array([1.0, 0.3, 0.6, 0.2]), np.array([0.1, 0.9, 0.5, 0.7])
    extra, level = (t1, 0.3) if redundant == "repeated" else (np.full(4, 0.5), 0.25)
    plain = diagonal_maxmin(DiagonalInstance((t1, t3)), target_levels=[0.3])
    res = diagonal_maxmin(DiagonalInstance((extra, t1, t3)), target_levels=[level, 0.3])
    assert res.value == pytest.approx(plain.value, abs=1e-12)
    assert float(t1**2 @ res.c_star**2) == pytest.approx(0.3, abs=1e-12)


def test_equality_variant_at_its_one_feasible_point():
    # the levels force s = (0, 0, 1); phase 1 ends with artificial columns
    # basic at 0 on rows that are not redundant, and they must stay at 0
    thetas = np.sqrt([[0.5, 0.0, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 0.0]])
    res = diagonal_maxmin(DiagonalInstance(tuple(thetas)), target_levels=[0.5, 1.0, 0.5])
    assert np.max(np.abs(res.c_star**2 - [0.0, 0.0, 1.0])) <= 1e-12
    assert res.support == (2,) and abs(res.value) <= 1e-12


@pytest.mark.parametrize("levels", [[1.5], [-0.1], [0.9, 0.9]])
def test_equality_variant_infeasible_levels(levels):
    thetas = (np.array([1.0, 0.3, 0.2]), np.array([0.1, 0.9, 0.2]), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(InfeasibleError):
        diagonal_maxmin(DiagonalInstance(thetas[-len(levels) - 1 :]), target_levels=levels)


def test_seeded_corpus_needs_at_most_five_pivots_per_round():
    # the corpus of test_coupling's Kelley-rounds test; a cold start
    # from the best column needs about 13 pivots per round
    rng = np.random.default_rng(2024)
    rounds = pivots = 0
    for _ in range(150):
        k = rng.integers(1, 9)
        nx = rng.integers(2, 8)
        px = instances.random_distribution(rng, nx)
        chans = [instances.random_channel(rng, nx, rng.integers(2, 8)) for _ in range(k)]
        sol = solve_broadcast([build_dtm(w, px) for w in chans])
        rounds, pivots = rounds + sol.rounds, pivots + sol.pivots
    assert pivots <= 5 * rounds
