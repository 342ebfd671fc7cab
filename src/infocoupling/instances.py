"""Canonical channels used across tests, demos, and the CLI, plus seeded
random instance generators for property runs."""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix
from .errors import DimensionMismatchError, RegimeError
from .prob import Distribution

DISTRIBUTION_FLOOR = 0.05
CHANNEL_FLOOR = 0.02
JOINT_FLOOR = 0.01


def identity_channel(n: int) -> ChannelMatrix:
    return ChannelMatrix(np.eye(n))


def bsc(p: float) -> ChannelMatrix:
    """Binary symmetric channel with crossover probability ``p``."""
    return ChannelMatrix(np.array([[1 - p, p], [p, 1 - p]]))


def uniform_distribution(n: int) -> Distribution:
    return Distribution(np.full(n, 1.0 / n))


def nested_ternary_channel(eta: float, gamma: float) -> ChannelMatrix:
    """Ternary channel made of two nested binary symmetric stages.

    Symbol 1 versus the merged pair {2, 3} behaves as a BSC with
    crossover ``1/2 - eta``; within the pair, symbols 2 and 3 see a BSC
    with crossover ``1/2 - gamma``.  At the operating point
    ``[1/2, 1/4, 1/4]`` the output distribution is the same vector and
    the coupling matrix has singular values ``1``, ``2*eta``, and
    ``(1 + 2*eta) * gamma``.
    """
    if not (0 <= eta <= 0.5 and 0 <= gamma <= 0.5):
        raise RegimeError("eta and gamma must lie in [0, 1/2]")
    w = np.array(
        [
            [0.5 + eta, 0.5 - eta, 0.5 - eta],
            [0.25 - 0.5 * eta, (0.5 + eta) * (0.5 + gamma), (0.5 + eta) * (0.5 - gamma)],
            [0.25 - 0.5 * eta, (0.5 + eta) * (0.5 - gamma), (0.5 + eta) * (0.5 + gamma)],
        ]
    )
    return ChannelMatrix(w)


def nested_ternary_operating_point() -> Distribution:
    return Distribution(np.array([0.5, 0.25, 0.25]))


def windmill_channels(delta: float) -> list[ChannelMatrix]:
    """Three binary-output receivers of a ternary-input broadcast channel.

    At the uniform ternary operating point each receiver's coupling
    matrix acts on the valid-perturbation plane as the same rank-one
    projection, rotated by 0, 120, and 240 degrees, which forces any
    common-message ensemble to spread over multiple directions.
    """
    if not 0 <= delta <= 0.5:
        raise RegimeError("delta must lie in [0, 1/2]")
    w1 = np.array([[0.5, 1 - delta, delta], [0.5, delta, 1 - delta]])
    w2 = np.array([[delta, 0.5, 1 - delta], [1 - delta, 0.5, delta]])
    w3 = np.array([[1 - delta, delta, 0.5], [delta, 1 - delta, 0.5]])
    return [ChannelMatrix(w) for w in (w1, w2, w3)]


def windmill_operating_point() -> Distribution:
    return uniform_distribution(3)


def binary_adder_joint() -> np.ndarray:
    """Joint channel of the binary adder: ``Y = X1 + X2`` (real addition).

    Returned as an array indexed ``[y, x1, x2]`` with ternary output.
    """
    joint = np.zeros((3, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            joint[x1 + x2, x1, x2] = 1.0
    return joint


def binary_adder_inputs() -> list[Distribution]:
    return [uniform_distribution(2), uniform_distribution(2)]


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    """Strictly positive random point on the simplex with a mass floor."""
    raw = rng.dirichlet(np.ones(n))
    probs = (raw + DISTRIBUTION_FLOOR) / (1 + n * DISTRIBUTION_FLOOR)
    return Distribution(probs)


def random_channel(rng: np.random.Generator, nx: int, ny: int) -> ChannelMatrix:
    """Random column-stochastic channel with entries bounded away from zero."""
    cols = rng.dirichlet(np.ones(ny), size=nx)  # one row per input symbol
    cols = (cols + CHANNEL_FLOOR) / (1 + ny * CHANNEL_FLOOR)
    return ChannelMatrix(cols.T)


def random_unit_direction(rng: np.random.Generator, base: Distribution) -> np.ndarray:
    """Unit weighted direction orthogonal to ``sqrt(base)``.

    Perturbing ``base`` along the unweighted form of the returned vector
    keeps the result on the simplex for small scales.  A one-symbol base
    has no such direction and raises :class:`DimensionMismatchError`.
    """
    if base.alphabet_size < 2:
        raise DimensionMismatchError("a one-symbol base has no direction orthogonal to sqrt(base)")
    v0 = base.sqrt()
    raw = rng.standard_normal(base.alphabet_size)
    raw -= (raw @ v0) * v0
    return raw / np.linalg.norm(raw)


def random_joint(rng: np.random.Generator, nx: int, ny: int) -> np.ndarray:
    """Strictly positive random joint distribution over a product alphabet,
    indexed ``[x, y]``."""
    raw = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return (raw + JOINT_FLOOR) / (1 + nx * ny * JOINT_FLOOR)


def joint_from_channel(w: ChannelMatrix, px: Distribution) -> np.ndarray:
    """Joint distribution ``P(x, y) = P_X(x) W(y | x)``, indexed ``[x, y]``."""
    return (w.entries * px.probs[np.newaxis, :]).T
