"""Kronecker lifting of coupling matrices to several letters.

The n-letter version of a memoryless channel has the n-fold Kronecker
power of the single-letter coupling matrix as its coupling matrix, with
letter 1 the slowest-varying index (matching ``np.kron``'s block
layout).  Tensor products of single-letter singular vectors are singular
vectors of the lift, with singular values multiplying, so the second
singular value never grows with the number of letters.  These routines
exist to verify exactly that, at materializable sizes.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from .channel import Dtm, Spectrum, canonical_spectrum
from .errors import CapacityError, DimensionMismatchError, InvalidDistributionError
from .prob import is_count, plain, record

KRON_SIZE_CAP = 4096
MAX_LETTERS = 3


def _require_capped(rows: int, cols: int) -> None:
    if rows > KRON_SIZE_CAP or cols > KRON_SIZE_CAP:
        raise CapacityError(f"kron result would be {rows}x{cols}, above the cap {KRON_SIZE_CAP}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, refused above ``KRON_SIZE_CAP`` rows or columns."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidDistributionError("kron factors must be finite")
    _require_capped(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return np.kron(a, b)


def kron_power(matrix: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power, refused before any product is formed at
    the first power above ``KRON_SIZE_CAP``; checking letter by letter
    keeps a huge ``n`` from forming a huge integer shape."""
    if n < 1:
        raise DimensionMismatchError("need at least one letter")
    rows, cols = np.atleast_2d(matrix).shape
    for letters in range(2, n + 1):
        _require_capped(rows**letters, cols**letters)
    return reduce(lambda acc, _: kron(acc, matrix), range(n - 1), np.asarray(matrix, dtype=float))


@record()
class LiftedDtm:
    """An n-letter lift of a coupling matrix.

    :attr:`matrix` is the Kronecker power, formed by :func:`kron_power`
    on first use and kept read-only; above ``KRON_SIZE_CAP`` it raises
    :class:`CapacityError`.  :meth:`apply` always works, multiplying by
    the base matrix one letter index at a time.
    """

    base: Dtm
    letters: int

    @cached_property
    def matrix(self) -> np.ndarray:
        # flagged rather than copied: at the size cap a copy would double it
        out = kron_power(self.base.matrix, self.letters)
        out.flags.writeable = False
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the lift to a finite vector over the n-letter input
        alphabet without materializing the Kronecker power."""
        nx = self.base.input.alphabet_size
        vec = np.asarray(vec, dtype=float)
        if vec.size != nx**self.letters:
            raise DimensionMismatchError(
                f"vector has {vec.size} entries, lift expects {nx**self.letters}"
            )
        if not np.all(np.isfinite(vec)):
            raise InvalidDistributionError("vector entries must be finite")
        tensor = vec.reshape((nx,) * self.letters)
        for axis in range(self.letters):
            tensor = np.tensordot(self.base.matrix, tensor, axes=([1], [axis]))
            tensor = np.moveaxis(tensor, 0, axis)
        return tensor.reshape(-1)


def lift_dtm(dtm: Dtm, letters: int) -> LiftedDtm:
    if not is_count(letters, 1):
        raise DimensionMismatchError(f"letters must be an integer >= 1, not {plain(letters)!r}")
    return LiftedDtm(base=dtm, letters=letters)


def kron_pair_residual(dtm: Dtm, i: int, j: int) -> float:
    """Residual of the product singular pair on the two-letter lift.

    ``v_i (x) v_j`` should be a right singular vector of the two-letter
    lift with singular value ``sigma_i * sigma_j`` and left vector
    ``w_i (x) w_j``; returns the Euclidean norm of the defect.
    """
    v = np.kron(dtm.right_vector(i), dtm.right_vector(j))
    w = np.kron(dtm.left_vector(i), dtm.left_vector(j))
    sigma = float(dtm.singular_values[i] * dtm.singular_values[j])
    return float(np.linalg.norm(lift_dtm(dtm, 2).apply(v) - sigma * w))


def lifted_spectrum(dtm: Dtm, n: int) -> Spectrum:
    """Full SVD of the n-letter lift under the package conventions; the
    top pair is not pinned as in ``build_dtm``, so a tie at the top
    surfaces whichever basis of the tied subspace the SVD returns."""
    u, s, vt = np.linalg.svd(lift_dtm(dtm, n).matrix, full_matrices=False)
    return Spectrum(*canonical_spectrum(s, vt.T, u))


def second_singular_of_power(dtm: Dtm, n: int) -> float:
    """Second-largest singular value of the n-letter lift, by full SVD.

    Tensorization makes this equal to the single-letter second singular
    value for every ``n``; only ``n <= MAX_LETTERS`` is supported since
    the check is meaningful at desk scale only.
    """
    if not 1 <= n <= MAX_LETTERS:
        raise CapacityError(f"letter count must be in [1, {MAX_LETTERS}]")
    values = lifted_spectrum(dtm, n).singular_values
    return float(values[1]) if values.size > 1 else 0.0


@record("components")
class ProductFormDecomposition:
    """Least-squares split of an n-letter weighted vector into single
    active letters.

    ``components[k]`` is the per-letter vector occupying slot ``k`` (all
    other slots filled with the reference direction); ``residual`` is the
    norm of the part outside the single-active-letter subspace.  The
    split itself is not unique (slots overlap in the pure reference
    direction); the minimum-norm solution is returned.
    """

    components: np.ndarray
    residual: float


def product_form_projector(psi: np.ndarray, base_v0: np.ndarray) -> ProductFormDecomposition:
    """Project an n-letter vector onto the span of single-active-letter
    products ``v0 (x) ... (x) c_k (x) ... (x) v0``."""
    psi = np.asarray(psi, dtype=float)
    v0 = np.asarray(base_v0, dtype=float)
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(v0))):
        raise InvalidDistributionError("psi and base_v0 must be finite")
    nx = v0.size
    n = round(math.log(psi.size, nx)) if psi.size >= nx > 1 else 0
    if n < 1 or nx**n != psi.size:
        raise DimensionMismatchError(
            f"vector length {psi.size} is not a positive power of the base size {nx}"
        )
    if n > MAX_LETTERS:
        raise CapacityError(f"letter count {n} above the supported maximum {MAX_LETTERS}")
    col = v0[:, np.newaxis]
    basis = np.hstack([reduce(np.kron, [col] * k + [np.eye(nx)] + [col] * (n - k - 1)) for k in range(n)])
    coeffs, _, _, _ = np.linalg.lstsq(basis, psi, rcond=None)
    residual = float(np.linalg.norm(psi - basis @ coeffs))
    return ProductFormDecomposition(
        components=coeffs.reshape(n, nx), residual=residual
    )
