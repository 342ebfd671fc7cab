"""Channel matrices, the divergence transition matrix, and its spectrum.

A discrete memoryless channel is stored column-stochastic: ``W[y, x] =
P(y | x)``, so pushing an input distribution through the channel is the
plain matrix-vector product ``P_Y = W @ P_X``.  At an operating point
``P_X`` with output ``P_Y`` the divergence transition matrix

    B = diag(sqrt(P_Y))^-1 @ W @ diag(sqrt(P_X))

maps weighted input perturbations to weighted output perturbations.  Its
top triple is exact: ``sigma_0 = 1``, right vector ``sqrt(P_X)``, left
vector ``sqrt(P_Y)``.  The rest, all at most 1, is the SVD of
``Q_Y^T B Q_X`` lifted by ``Q_X`` and ``Q_Y``, orthonormal bases of the
valid planes orthogonal to those vectors.  It is computed once and cached.

Sign and ordering conventions below the top triple and for the lifts in
``tensor`` (:func:`canonical_spectrum`): singular values descend; within
a tie (values within ``TIE_ATOL``) the right vectors are ordered
lexicographically; each right vector's first component larger than
``SIGN_ATOL`` in magnitude is made positive, flipping its left vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOutputError, DimensionMismatchError
from .prob import Distribution, is_count, record

COLUMN_SUM_ATOL = 1e-12
UNIT_COLUMN_ATOL = 1e-9
SIGN_ATOL = 1e-9
TIE_ATOL = 1e-10


@record("entries")
class ChannelMatrix:
    """Column-stochastic conditional law ``entries[y, x] = P(y | x)``."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or 0 in self.entries.shape:
            raise DimensionMismatchError("channel must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(self.entries)):
            raise DimensionMismatchError("channel entries must be finite")
        if np.any(self.entries < 0) or np.any(self.entries > 1):
            raise DimensionMismatchError("channel entries must lie in [0, 1]")
        sums = self.entries.sum(axis=0)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > COLUMN_SUM_ATOL:
            raise DimensionMismatchError(
                f"channel columns must sum to 1; worst deviation {worst!r}"
            )

    @property
    def input_size(self) -> int:
        return self.entries.shape[1]

    @property
    def output_size(self) -> int:
        return self.entries.shape[0]


def unit_columns(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` with each column (the slices along axis 0) divided by its
    sum, once every sum is within ``UNIT_COLUMN_ATOL`` of 1: the slack
    that decimal serialization of a channel is allowed."""
    sums = arr.sum(axis=0)
    if float(np.max(np.abs(sums - 1.0))) > UNIT_COLUMN_ATOL:
        raise DimensionMismatchError(f"{what} columns must sum to 1 (within {UNIT_COLUMN_ATOL:g})")
    return arr / sums


def output_distribution(w: ChannelMatrix, px: Distribution) -> Distribution:
    """Push ``px`` through the channel: ``P_Y = W @ P_X``."""
    if px.alphabet_size != w.input_size:
        raise DimensionMismatchError(
            f"input distribution has {px.alphabet_size} symbols, channel expects "
            f"{w.input_size}"
        )
    return Distribution(w.entries @ px.probs)


@record("singular_values", "right_vectors", "left_vectors")
class Spectrum:
    """Full singular system of a coupling matrix.

    ``right_vectors`` and ``left_vectors`` hold the vectors as columns,
    index-aligned with ``singular_values``.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __len__(self) -> int:
        return self.singular_values.size


def canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Per column of ``vectors``, the sign (+1 or -1) that makes its first
    entry larger than ``SIGN_ATOL`` in magnitude positive; +1 for a column
    without one."""
    big = np.abs(vectors) > SIGN_ATOL
    first = np.argmax(big, axis=0), np.arange(vectors.shape[1])
    return np.where(big[first] & (vectors[first] < 0), -1.0, 1.0)


def _canonical_order(s: np.ndarray, right: np.ndarray, left: np.ndarray):
    """Stable descending order; a run of values within ``TIE_ATOL`` of its
    first is a tie, ordered lexicographically by right vector."""
    rank, lead = {}, None
    for j in sorted(range(s.size), key=lambda j: -s[j]):
        if lead is None or s[lead] - s[j] > TIE_ATOL:
            lead = j
        rank[j] = (-s[lead], tuple(right[:, j]))
    idx = np.array(sorted(rank, key=rank.get), dtype=int)
    return s[idx], right[:, idx], left[:, idx]


def canonical_spectrum(s: np.ndarray, right: np.ndarray, left: np.ndarray):
    """The singular system ``(s, right, left)``, vectors as columns, signed
    and ordered by the package conventions."""
    sign = canonical_sign(right)
    return _canonical_order(s, right * sign, left * sign)


def valid_plane_basis(px: Distribution) -> np.ndarray:
    """Orthonormal basis of the valid-perturbation plane (orthogonal
    complement of ``sqrt(P_X)``), deterministic in ``px``."""
    return np.linalg.svd(px.sqrt()[np.newaxis, :])[2][1:].T


@record("matrix")
class Dtm:
    """Divergence transition matrix at a fixed operating point.

    Holds the matrix ``B``, the operating input/output distributions, and
    the cached full spectrum.  Use :func:`build_dtm` to construct one.
    """

    matrix: np.ndarray
    input: Distribution
    output: Distribution
    spectrum: Spectrum

    @property
    def singular_values(self) -> np.ndarray:
        return self.spectrum.singular_values

    def right_vector(self, i: int) -> np.ndarray:
        return self.spectrum.right_vectors[:, self._index(i)]

    def left_vector(self, i: int) -> np.ndarray:
        return self.spectrum.left_vectors[:, self._index(i)]

    def _index(self, i: int) -> int:
        if not (is_count(i, 0) and i < len(self.spectrum)):
            raise DimensionMismatchError(f"singular index {i!r} is not in 0..{len(self.spectrum) - 1}")
        return i

    @property
    def second_singular_value(self) -> float:
        s = self.spectrum.singular_values
        return float(s[1]) if s.size > 1 else 0.0


def build_dtm(w: ChannelMatrix, px: Distribution) -> Dtm:
    """Build the divergence transition matrix and its cached spectrum:
    the exact top triple, then the SVD of ``Q_Y^T B Q_X`` lifted back and
    put in order by :func:`canonical_spectrum`.

    Requires a strictly positive operating point and a strictly positive
    output distribution (otherwise the output weighting is singular).
    """
    px.require_strictly_positive("operating point")
    py = output_distribution(w, px)
    if not py.strictly_positive:
        idx = int(np.argmin(py.probs))
        raise DegenerateOutputError(
            f"output symbol {idx} has zero probability at this operating point"
        )
    b = (w.entries * px.sqrt()[np.newaxis, :]) / py.sqrt()[:, np.newaxis]
    qx, qy = valid_plane_basis(px), valid_plane_basis(py)
    u, s, vt = np.linalg.svd(qy.T @ b @ qx, full_matrices=False)
    s, right, left = canonical_spectrum(s, qx @ vt.T, qy @ u)
    spectrum = Spectrum(
        np.concatenate([[1.0], s]),
        np.column_stack([px.sqrt(), right]),
        np.column_stack([py.sqrt(), left]),
    )
    return Dtm(b, px, py, spectrum)


@dataclass(frozen=True)
class TopPairReport:
    """Residuals of the cached top singular triple against ``B``."""

    sigma0_err: float
    v0_err: float
    w0_err: float

    @property
    def max_err(self) -> float:
        return max(self.sigma0_err, self.v0_err, self.w0_err)


def verify_top_singular(dtm: Dtm) -> TopPairReport:
    """Residuals ``|w_0^T B v_0 - sigma_0|``, ``||B^T w_0 - sigma_0 v_0||``
    and ``||B v_0 - sigma_0 w_0||`` of the cached top triple.

    The triple is pinned analytically, so comparing it with ``sqrt(P_X)``
    would prove nothing; these test it against the stored matrix."""
    s = dtm.spectrum
    sigma0 = float(s.singular_values[0])
    v0 = s.right_vectors[:, 0]
    w0 = s.left_vectors[:, 0]
    b = dtm.matrix
    return TopPairReport(
        sigma0_err=abs(float(w0 @ b @ v0) - sigma0),
        v0_err=float(np.linalg.norm(b.T @ w0 - sigma0 * v0)),
        w0_err=float(np.linalg.norm(b @ v0 - sigma0 * w0)),
    )


def strong_dpi_coefficient(dtm: Dtm) -> float:
    """Square of the second singular value: the contraction factor bounding
    ``I(U;Y) / I(U;X)`` for couplings local around the operating point."""
    return dtm.second_singular_value**2


@record("f", "g")
class RenyiCorrelation:
    """Maximal correlation with its achieving function pair.

    ``f`` and ``g`` are tables over the input and output alphabets with
    zero mean and unit variance under the operating distributions.
    ``ambiguous`` is set when the second singular value is tied within
    ``TIE_ATOL``, in which case the maximizing pair is not unique and the
    returned one is just the convention-ordered representative.
    """

    rho: float
    f: np.ndarray
    g: np.ndarray
    ambiguous: bool


def renyi_correlation(dtm: Dtm) -> RenyiCorrelation:
    """Maximal correlation of the (input, output) pair at the operating point.

    Equals the second singular value of the coupling matrix; the optimal
    functions are the second singular vectors divided coordinate-wise by
    ``sqrt(P_X)`` and ``sqrt(P_Y)``.  They satisfy the fixed-point
    property ``E[g(Y) | X] = rho * f(X)`` (and symmetrically for ``f``).
    """
    s = dtm.spectrum
    if len(s) < 2:
        raise DimensionMismatchError("alphabets too small for a nontrivial correlation")
    rho = float(s.singular_values[1])
    f = s.right_vectors[:, 1] / dtm.input.sqrt()
    g = s.left_vectors[:, 1] / dtm.output.sqrt()
    ambiguous = len(s) > 2 and (rho - float(s.singular_values[2])) <= TIE_ATOL
    return RenyiCorrelation(rho=rho, f=f, g=g, ambiguous=ambiguous)
