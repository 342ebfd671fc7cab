"""Independent brute-force and iterative references for the solvers.

Every closed-form claim in the package has a desk-scale check here that
reaches the same number along a different computational path: exhaustive
angular grids with exact divergence evaluations for the point-to-point
ratios, an exact enumeration of the max-min's candidate points on the
Gram disk for the broadcast solver, and an alternating
conditional-expectation iteration for the maximal correlation.  None of
these routines touch the singular-value or LP machinery they validate.

The grid oracles score a whole grid in one array pass, every divergence
taken by the package's one divergence kernel (``prob._kl``) along the
symbol axis 0; the kernel search holds at most
``SLAB_PAIRS`` (mixture weight, kernel) pairs at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, output_distribution, valid_plane_basis
from .coupling import _circle_candidates, _plane_forms
from .errors import (
    BudgetError,
    DimensionMismatchError,
    ResolutionError,
    SingularWeightError,
)
from .prob import Distribution, _kl, is_count, plain, record, require_positive

ACE_MAX_ITERATIONS = 100_000
ACE_TOL = 1e-12
SLAB_PAIRS = 2**16


@dataclass(frozen=True)
class SearchBudget:
    """Grid resolution (points per angular dimension) of a grid oracle.
    :func:`brute_broadcast` also takes one, kept for call compatibility,
    but does not read it."""

    grid_resolution: int

    def __post_init__(self):
        if not is_count(self.grid_resolution, 8):
            raise ResolutionError(f"grid resolution must be an integer >= 8, not {plain(self.grid_resolution)!r}")


def _direction_grid(dim: int, resolution: int) -> np.ndarray:
    """Unit vectors covering the sphere in ``dim`` dimensions, one angular
    grid per dimension of freedom (antipodes are equivalent here)."""
    if dim == 0:
        raise DimensionMismatchError("a one-symbol alphabet has no perturbation direction")
    if dim == 1:
        return np.array([[1.0]])
    theta = np.linspace(0.0, math.pi, resolution, endpoint=False)
    if dim == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        phi = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        return np.stack(
            [np.cos(tt), np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp)], axis=-1
        ).reshape(-1, 3)
    raise DimensionMismatchError("angular grids support at most 3 free dimensions")


@record("best_direction")
class BruteP2PResult:
    best_ratio: float
    best_direction: np.ndarray


def _ignores_input(w: ChannelMatrix) -> bool:
    """Equal columns: no family carries output information, whatever roundoff says."""
    return bool(np.all(w.entries == w.entries[:, :1]))


def brute_p2p(w: ChannelMatrix, px: Distribution, epsilon: float, budget: SearchBudget) -> BruteP2PResult:
    """Grid maximization of the exact information ratio ``I(U;Y)/I(U;X)``
    over binary symmetric local ensembles ``P_X +- eps sqrt(P_X) psi``.

    The directions run over an exhaustive angular grid of the unit sphere
    orthogonal to ``sqrt(P_X)`` (input alphabets up to four symbols);
    both informations are exact divergence sums, so the result is an
    independent reference for the contraction coefficient.  The whole
    grid is scored in one array pass; ``epsilon`` must be finite and
    positive.  No ratio is negative; equal columns give exactly 0.
    """
    if w.input_size > 4:
        raise DimensionMismatchError("brute-force search supports at most 4 input symbols")
    require_positive(epsilon, "epsilon")
    px.require_strictly_positive("operating point")
    py = output_distribution(w, px).probs
    q = valid_plane_basis(px)
    psis = _direction_grid(q.shape[1], budget.grid_resolution) @ q.T
    steps = epsilon * (psis * px.sqrt())
    ends = px.probs + np.stack([steps, -steps])
    valid = ends.min(axis=(0, 2)) >= 0
    if not np.any(valid):
        raise ResolutionError("no grid direction stays on the simplex at this scale")
    ix = 0.5 * _kl(ends.T, px.probs).sum(axis=1)
    iy = 0.0 if _ignores_input(w) else 0.5 * _kl((ends @ w.entries.T).T, py).sum(axis=1)
    ratio = np.where(valid & (ix > 0), np.maximum(iy, 0.0) / np.where(ix > 0, ix, 1.0), -np.inf)
    j = int(np.argmax(ratio))
    return BruteP2PResult(best_ratio=float(ratio[j]), best_direction=psis[j])


def ace_correlation(joint: np.ndarray) -> float:
    """Maximal correlation by alternating conditional expectations.

    Power iteration on zero-mean functions: condition on one variable,
    recenter, condition back, renormalize; the correlation estimates
    increase to the maximal correlation.  Stops when the estimate moves
    by less than ``ACE_TOL`` (relative); raises :class:`BudgetError` if
    ``ACE_MAX_ITERATIONS`` run out first.  ``joint`` must be a finite
    2-D probability table.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2 or not np.all(np.isfinite(joint)):
        raise DimensionMismatchError("joint must be a finite 2-D array over (x, y)")
    Distribution(joint.ravel())  # negative or unnormalized joints raise InvalidDistributionError
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    if np.any(px <= 0) or np.any(py <= 0):
        raise SingularWeightError("both marginals must be strictly positive")
    nx = px.size
    idx = np.arange(nx, dtype=float)
    f = idx + 0.382 * idx**2 + 0.05 * np.sin(idx + 1.0)
    f -= px @ f
    norm = math.sqrt(float(px @ f**2))
    if norm < 1e-300:
        return 0.0
    f /= norm
    rho_prev = -1.0
    for _ in range(ACE_MAX_ITERATIONS):
        g = (joint.T @ f) / py
        g -= py @ g
        rho_y = math.sqrt(float(py @ g**2))
        if rho_y < 1e-150:
            return 0.0
        g /= rho_y
        f_new = (joint @ g) / px
        f_new -= px @ f_new
        rho_x = math.sqrt(float(px @ f_new**2))
        if rho_x < 1e-150:
            return 0.0
        f = f_new / rho_x
        rho = 0.5 * (rho_x + rho_y)
        if abs(rho - rho_prev) <= ACE_TOL * max(rho, 1.0):
            return rho
        rho_prev = rho
    raise BudgetError(
        f"alternating expectations did not settle in {ACE_MAX_ITERATIONS} iterations",
        best_gap=abs(rho - rho_prev),
    )


@dataclass(frozen=True)
class SRatioResult:
    lower_bound: float
    nonlocal_best: float
    local_best: float


def _simplex_grid(n: int, divisions: int) -> np.ndarray:
    """All compositions of ``divisions`` into ``n`` parts, as points on
    the simplex: one column per point, in stars-and-bars order."""
    top = divisions + n - 1
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(top), n - 1)), dtype=int)
    bars = bars.reshape(math.comb(top, n - 1), n - 1)
    return np.ascontiguousarray(np.diff(bars, axis=1, prepend=-1, append=top).T - 1) / divisions


def s_ratio_search(w: ChannelMatrix, px: Distribution, budget: SearchBudget) -> SRatioResult:
    """Search lower bound on the unconstrained information ratio.

    Sweeps binary families whose kernels come from a simplex grid (the
    mixture pinned to the operating point), plus local symmetric
    ensembles on an angular grid, and reports the best exact ratio
    found.  The local family sits in the search closure, so the bound is
    never materially below the local contraction coefficient; kernels far
    from the operating point may push it above.  The budget resolution
    governs the kernel grid; the cheap local sweep always runs at least
    at 360 angular points so the closure guarantee holds on its own.

    All (mixture weight, kernel) pairs are screened in one array pass
    over contiguous ``(symbol, weight, kernel)`` arrays, in slabs of at
    most ``SLAB_PAIRS`` pairs (one weight when the kernel grid alone is
    larger); only pairs whose second kernel stays on the simplex are scored.
    """
    if w.input_size > 3:
        raise DimensionMismatchError("kernel-grid search supports at most 3 input symbols")
    px.require_strictly_positive("operating point")
    py = output_distribution(w, px).probs
    local = brute_p2p(w, px, 1e-3, SearchBudget(max(budget.grid_resolution, 360))).best_ratio
    if _ignores_input(w):
        return SRatioResult(local, 0.0, local)
    kernels = _simplex_grid(w.input_size, budget.grid_resolution)
    dx0 = _kl(kernels, px.probs)
    dy0 = _kl(w.entries @ kernels, py)
    alphas = np.arange(1, budget.grid_resolution)[:, np.newaxis] / budget.grid_resolution
    step = max(1, SLAB_PAIRS // kernels.shape[1])
    best = 0.0
    for alpha in np.split(alphas, range(step, alphas.shape[0], step)):
        q1 = (px.probs[:, np.newaxis, np.newaxis] - alpha * kernels[:, np.newaxis, :]) / (1.0 - alpha)
        i, k = np.nonzero(q1.min(axis=0) >= -1e-15)
        a, q1 = alpha[i, 0], np.clip(q1[:, i, k], 0.0, None)
        ix = a * dx0[k] + (1 - a) * _kl(q1, px.probs)
        iy = a * dy0[k] + (1 - a) * _kl(np.tensordot(w.entries, q1, axes=1), py)
        ratio = np.where(ix > 1e-15, iy / np.where(ix > 0, ix, 1.0), -np.inf)
        best = max(best, float(ratio.max(initial=-np.inf)))
    return SRatioResult(max(best, local), best, local)


@record()
class BruteBroadcastResult:
    lambda_estimate: float
    angles: tuple
    weights: tuple


def brute_broadcast(dtms, budget: SearchBudget) -> BruteBroadcastResult:
    """Exact max-min ensemble on a valid-perturbation plane of dimension
    at most two.

    On a 2-D plane every ensemble's Gram matrix is
    ``[[(1+a)/2, b/2], [b/2, (1-a)/2]]`` with ``x = (a, b)`` in the unit
    disk, and receiver ``i`` sees the affine value ``c_i + g_i . x``.  The
    max-min is attained at a KKT candidate: the origin, each
    ``g_i / |g_i|``, a point where a line ``f_i = f_j`` meets the circle,
    or a point where ``f_i = f_j = f_k``.  Every candidate is pulled into
    the disk before it is scored, so each is a realizable ensemble and a
    spurious one (a triple point outside the disk, a line missing it, the
    roundoff of a tangent line) cannot overshoot.  No grid, eigen-solver
    or LP is involved, so the result is independent of the solver it
    checks.  The ensemble comes back in closed form as two antipodal pairs
    at angles ``phi`` and ``phi + pi/2`` with weights ``(1 +- r)/2``.  The
    enumeration reads nothing from ``budget``, which is kept for call
    compatibility only.
    """
    k = len(dtms)
    if k < 1:
        raise DimensionMismatchError("need at least one receiver")
    _, q, forms = _plane_forms(dtms)
    if q.shape[1] > 2:
        raise DimensionMismatchError(
            "exhaustive ensemble search needs a perturbation plane of dimension <= 2"
        )

    if q.shape[1] == 1:
        value = float(forms[:, 0, 0].min())
        return BruteBroadcastResult(
            lambda_estimate=value,
            angles=(0.0,) * k,
            weights=(1.0,) + (0.0,) * (k - 1),
        )

    c, g, circle = _circle_candidates(forms)
    i, j, l = np.array(list(itertools.combinations(range(k), 3)), dtype=int).reshape(-1, 3).T
    u, v, s, t = g[j] - g[i], g[l] - g[i], c[i] - c[j], c[i] - c[l]
    det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    meet = np.stack([s * v[:, 1] - t * u[:, 1], t * u[:, 0] - s * v[:, 0]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pts = np.vstack([np.zeros((1, 2)), circle, meet / det[:, np.newaxis]])
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    pts /= np.maximum(np.hypot(pts[:, :1], pts[:, 1:]), 1.0)
    a, b = pts[int(np.argmax((c + pts @ g.T).min(axis=1)))]
    r, phi = min(math.hypot(a, b), 1.0), 0.5 * math.atan2(b, a)
    return BruteBroadcastResult(
        lambda_estimate=float(np.min(c + g @ np.array([a, b]))),
        angles=(phi % math.pi, (phi + 0.5 * math.pi) % math.pi),
        weights=(0.5 * (1.0 + r), 0.5 * (1.0 - r)),
    )
