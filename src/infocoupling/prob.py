"""Finite-alphabet probability primitives.

Distributions are points on the simplex over a finite alphabet.  A
nearby distribution is written ``Q = P + eps * J`` with a zero-sum
direction ``J``; rescaling the direction coordinate-wise by ``1/sqrt(P)``
gives the weighted form ``psi``, under which the second-order expansion
of the KL divergence becomes a plain squared Euclidean norm:

    D(P || P + eps*J) = 0.5 * eps^2 * ||psi||^2 + o(eps^2).

Everything here is exact arithmetic on numpy vectors; all values are
immutable after construction and all operations are pure.  Natural
logarithms throughout; unit conversion to bits happens at the CLI
boundary only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDistributionError,
    SingularWeightError,
)

SIMPLEX_ATOL = 1e-12
ZERO_SUM_ATOL = 1e-12
MIXTURE_ATOL = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def record(*arrays: str):
    """Class decorator for an immutable result record: a frozen dataclass
    without value equality that stores each field named in ``arrays`` as
    a read-only float copy, then runs the class's own ``__post_init__``."""

    def wrap(cls):
        check = cls.__dict__.get("__post_init__", lambda self: None)

        def __post_init__(self):
            for name in arrays:
                object.__setattr__(self, name, _freeze(getattr(self, name)))
            check(self)

        cls.__post_init__ = __post_init__
        return dataclass(frozen=True, eq=False)(cls)

    return wrap


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite alphabet.

    Entries must be non-negative and sum to one within ``SIMPLEX_ATOL``;
    inputs that fail are rejected rather than renormalized, so callers
    always know the provenance of what they passed in.  Zeros are
    allowed: transient distributions (channel outputs, simplex vertices
    reached by layering) legitimately contain them.  Use
    :meth:`require_strictly_positive` at the points where a distribution
    serves as an operating point.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidDistributionError("probs must be a non-empty 1-D vector")
        bad = np.nonzero(~np.isfinite(probs))[0]
        if bad.size:
            raise InvalidDistributionError(
                f"non-finite probability {float(probs[bad[0]])!r} at index {bad[0]}",
                index=int(bad[0]),
            )
        neg = np.nonzero(probs < 0)[0]
        if neg.size:
            raise InvalidDistributionError(
                f"negative probability {float(probs[neg[0]])!r} at index {neg[0]}",
                index=int(neg[0]),
            )
        total = probs.sum()
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise InvalidDistributionError(
                f"probabilities sum to {float(total)!r}, not 1 (renormalization is refused)"
            )
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.probs > 0))

    def require_strictly_positive(self, what: str = "distribution") -> "Distribution":
        if not self.strictly_positive:
            idx = int(np.argmin(self.probs))
            raise SingularWeightError(
                f"{what} must have strictly positive entries; entry {idx} is zero"
            )
        return self

    def sqrt(self) -> np.ndarray:
        """Entrywise square root, the reference direction of the weighted space."""
        return np.sqrt(self.probs)


def require_nonnegative(value: float, what: str) -> float:
    """``value``, a perturbation size, unless it is negative or not finite."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidDistributionError(f"{what} must be finite and non-negative, not {plain(value)!r}")
    return value


def plain(value):
    """``value`` for a message: numpy scalars, also in a tuple, as Python ones."""
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value.item() if isinstance(value, np.generic) else value


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (numpy integers included) of at least ``least``."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


def require_positive(value: float, what: str) -> float:
    """``value``, a perturbation size, unless it is not finite and above 0."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidDistributionError(f"{what} must be finite and positive, not {plain(value)!r}")
    return value


@record("direction")
class Perturbation:
    """A distribution ``base`` plus a scaled zero-sum direction.

    The direction must sum to zero (so ``base + scale*direction`` stays
    on the affine hull of the simplex); whether the materialized point
    lies inside the simplex is only checked by
    :func:`apply_perturbation`, because intermediate algebra such as
    line searches legitimately leaves it.
    """

    base: Distribution
    direction: np.ndarray
    scale: float = 0.0

    def __post_init__(self):
        if self.direction.shape != self.base.probs.shape:
            raise DimensionMismatchError(
                f"direction has shape {self.direction.shape}, base has "
                f"{self.base.probs.shape}"
            )
        if not abs(self.direction.sum()) <= ZERO_SUM_ATOL:  # NaN fails too
            raise InvalidDistributionError(
                f"direction entries sum to {float(self.direction.sum())!r}, not 0"
            )
        require_nonnegative(self.scale, "scale")


@record("coords")
class WeightedVector:
    """A perturbation direction in weighted coordinates.

    ``coords[x] = J[x] / sqrt(P(x))`` relative to the reference
    distribution, so that the weighted inner product of directions is the
    plain Euclidean inner product of their coordinates.
    """

    coords: np.ndarray
    reference: Distribution

    def __post_init__(self):
        if self.coords.shape != self.reference.probs.shape:
            raise DimensionMismatchError(
                f"coords have shape {self.coords.shape}, reference has "
                f"{self.reference.probs.shape}"
            )
        if not np.all(np.isfinite(self.coords)):
            raise InvalidDistributionError("weighted coordinates must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@record()
class ConditionalFamily:
    """A law over an auxiliary variable together with one kernel per value."""

    u_law: Distribution
    kernels: tuple

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if len(kernels) != self.u_law.alphabet_size:
            raise DimensionMismatchError(
                f"{len(kernels)} kernels for {self.u_law.alphabet_size} auxiliary values"
            )
        sizes = {k.alphabet_size for k in kernels}
        if len(sizes) > 1:
            raise DimensionMismatchError("kernels live on different alphabets")
        object.__setattr__(self, "kernels", kernels)

    def kernel_matrix(self) -> np.ndarray:
        """Kernels stacked as rows, one row per auxiliary value."""
        return np.stack([k.probs for k in self.kernels])

    def mixture(self) -> Distribution:
        return Distribution(self.u_law.probs @ self.kernel_matrix())

    def assert_marginal(self, marginal: Distribution):
        err = float(np.max(np.abs(self.u_law.probs @ self.kernel_matrix() - marginal.probs)))
        if err > MIXTURE_ATOL:
            raise InvalidDistributionError(f"mixture deviates from the stated marginal by {err!r}")


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence along axis 0 of distributions against one ``q``;
    ``inf`` where ``p`` puts mass outside the support of ``q``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q.reshape(q.shape + (1,) * (p.ndim - 1))), 0.0)
    return terms.sum(axis=0)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Exact KL divergence ``sum_x p(x) log(p(x)/q(x))`` in nats.

    Returns ``inf`` when ``p`` puts mass outside the support of ``q``;
    terms with ``p(x) = 0`` contribute nothing.
    """
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatchError(f"alphabets differ: {p.alphabet_size} vs {q.alphabet_size}")
    return float(_kl(p.probs, q.probs))


def weighted_inner(j1: np.ndarray, j2: np.ndarray, ref: Distribution) -> float:
    """Inner product ``sum_x j1(x) j2(x) / P(x)`` of perturbation directions."""
    j1 = np.asarray(j1, dtype=float)
    j2 = np.asarray(j2, dtype=float)
    if j1.shape != ref.probs.shape or j2.shape != ref.probs.shape:
        raise DimensionMismatchError("direction shapes do not match the reference")
    if not (np.all(np.isfinite(j1)) and np.all(np.isfinite(j2))):
        raise InvalidDistributionError("directions must be finite")
    ref.require_strictly_positive("weighting reference")
    return float(np.sum(j1 * j2 / ref.probs))


def to_weighted(j: np.ndarray, ref: Distribution) -> WeightedVector:
    """Rescale a direction into weighted coordinates, ``psi = J / sqrt(P)``."""
    j = np.asarray(j, dtype=float)
    if j.shape != ref.probs.shape:
        raise DimensionMismatchError("direction shape does not match the reference")
    ref.require_strictly_positive("weighting reference")
    return WeightedVector(j / ref.sqrt(), ref)


def from_weighted(psi: WeightedVector) -> np.ndarray:
    """Invert :func:`to_weighted`: ``J = psi * sqrt(P)``."""
    psi.reference.require_strictly_positive("weighting reference")
    return psi.coords * psi.reference.sqrt()


def local_kl(pert: Perturbation) -> float:
    """Quadratic approximation of the divergence from ``base`` to the
    perturbed point: ``0.5 * eps^2 * ||psi||^2`` in nats."""
    pert.base.require_strictly_positive("perturbation base")
    return 0.5 * pert.scale**2 * weighted_inner(pert.direction, pert.direction, pert.base)


def mutual_information(fam: ConditionalFamily, marginal: Distribution) -> float:
    """Exact mutual information ``sum_u P_U(u) D(kernel_u || marginal)`` in nats."""
    if fam.kernels[0].alphabet_size != marginal.alphabet_size:
        raise DimensionMismatchError("kernels and marginal live on different alphabets")
    pu = fam.u_law.probs
    return float(pu[pu > 0] @ _kl(fam.kernel_matrix()[pu > 0].T, marginal.probs))


def apply_perturbation(pert: Perturbation) -> Distribution:
    """Materialize ``base + scale * direction`` as a validated distribution."""
    with np.errstate(over="ignore"):  # an entry that overflows leaves [0, 1] too
        point = pert.base.probs + pert.scale * pert.direction
    bad = np.nonzero((point < -SIMPLEX_ATOL) | (point > 1 + SIMPLEX_ATOL))[0]
    if bad.size:
        raise InvalidDistributionError(
            f"entry {bad[0]} leaves [0, 1] under the perturbation "
            f"(value {float(point[bad[0]])!r})",
            index=int(bad[0]),
        )
    return Distribution(np.clip(point, 0.0, 1.0))
