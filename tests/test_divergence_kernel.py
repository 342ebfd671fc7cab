"""The package's one divergence kernel against the formulas it replaced.

``kl_divergence``, ``mutual_information`` and ``superposition_information``
all evaluate divergences through ``prob._kl``.  The references below are
copies of the per-kernel formulas they used before: a support mask with an
early ``inf``, a Python loop over the auxiliary values, and a loop over
every joint value of the superposed families.  On a seeded corpus with
zeros in both arguments the two agree to a relative 1e-15, and every
``inf`` is reproduced exactly.
"""

import itertools
import math

import numpy as np
import pytest

from infocoupling import (
    ConditionalFamily,
    Distribution,
    kl_divergence,
    mutual_information,
    superposition_information,
)

RTOL = 1e-15
CASES = 600


def _reference_kl(p, q):
    pa, qa = p.probs, q.probs
    support = pa > 0
    if np.any(qa[support] == 0):
        return math.inf
    ps = pa[support]
    return float(np.sum(ps * np.log(ps / qa[support])))


def _reference_mi(fam, marginal):
    total = 0.0
    for pu, kernel in zip(fam.u_law.probs, fam.kernels):
        if pu == 0:
            continue
        d = _reference_kl(kernel, marginal)
        if math.isinf(d):
            return math.inf
        total += pu * d
    return total


def _reference_superposition(base, families):
    total = 0.0
    for combo in itertools.product(*(range(len(law)) for law, _, _ in families)):
        weight = 1.0
        point = base.probs.copy()
        for (law, dirs, eps), u in zip(families, combo):
            weight *= law[u]
            point = point + eps * dirs[u]
        if weight == 0.0:
            continue
        total += weight * _reference_kl(Distribution(point), base)
    return total


def _sparse(rng, n, zero_rate=0.3):
    """A random distribution on ``n`` symbols with about ``zero_rate`` of
    its entries zero."""
    p = rng.dirichlet(np.ones(n))
    p[rng.random(n) < zero_rate] = 0.0
    if not p.any():
        p[rng.integers(n)] = 1.0
    return Distribution(p / p.sum())


def _assert_close(value, reference):
    if math.isinf(reference):
        assert value == reference
    else:
        assert abs(value - reference) <= RTOL * abs(reference)


def _families(rng, base):
    """One to three zero-mean families under random laws (some weights
    zero), scaled so every superposed point stays inside the simplex."""
    n = base.alphabet_size
    raw = []
    for _ in range(int(rng.integers(1, 4))):
        law = _sparse(rng, int(rng.integers(1, 4)), 0.2).probs
        dirs = rng.standard_normal((law.size, n))
        dirs -= law @ dirs
        dirs -= dirs.mean(axis=1, keepdims=True)
        raw.append((law, dirs))
    spread = sum(float(np.abs(d).max()) for _, d in raw)
    eps = 0.3 * float(base.probs.min()) / spread if spread > 0 else 0.1
    return [(law, dirs, eps) for law, dirs in raw]


def test_kl_divergence_matches_reference():
    rng = np.random.default_rng(1401)
    infinite = 0
    for _ in range(CASES):
        n = int(rng.integers(1, 12))
        p, q = _sparse(rng, n), _sparse(rng, n)
        reference = _reference_kl(p, q)
        infinite += math.isinf(reference)
        _assert_close(kl_divergence(p, q), reference)
        assert kl_divergence(p, p) == 0.0
    assert 0 < infinite < CASES


def test_mutual_information_matches_reference():
    rng = np.random.default_rng(1402)
    for _ in range(CASES):
        n = int(rng.integers(1, 12))
        law = _sparse(rng, int(rng.integers(1, 5)))
        fam = ConditionalFamily(law, tuple(_sparse(rng, n) for _ in range(law.alphabet_size)))
        for marginal in (_sparse(rng, n), fam.mixture()):
            _assert_close(mutual_information(fam, marginal), _reference_mi(fam, marginal))


def test_superposition_information_matches_reference():
    rng = np.random.default_rng(1403)
    for _ in range(CASES // 3):
        base = _sparse(rng, int(rng.integers(1, 12)), 0.0)
        families = _families(rng, base)
        _assert_close(superposition_information(base, families), _reference_superposition(base, families))


@pytest.mark.parametrize("weights", [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
def test_zero_weight_kernel_outside_support_is_skipped(weights):
    # a kernel with no weight never counts, even where its divergence is inf
    marginal = Distribution([0.5, 0.5, 0.0])
    kernels = (Distribution([0.5, 0.5, 0.0]), Distribution([0.0, 0.0, 1.0]), Distribution([0.2, 0.8, 0.0]))
    fam = ConditionalFamily(Distribution(weights), kernels)
    assert math.isfinite(mutual_information(fam, marginal))
    assert mutual_information(fam, marginal) == pytest.approx(_reference_mi(fam, marginal), rel=RTOL)
