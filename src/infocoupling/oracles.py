"""Independent brute-force and iterative references for the solvers.

Every closed-form claim in the package has a desk-scale check here that
reaches the same number along a different computational path: exhaustive
angular grids with exact divergence evaluations for the point-to-point
ratios, an exact enumeration of the max-min's candidate points on the
Gram disk for the broadcast solver, and an alternating
conditional-expectation iteration for the maximal correlation.  None of
these routines touch the singular-value or LP machinery they validate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, valid_plane_basis
from .coupling import _circle_candidates, _plane_forms
from .errors import (
    BudgetError,
    DimensionMismatchError,
    ResolutionError,
    SingularWeightError,
)
from .prob import Distribution, _freeze

ACE_MAX_ITERATIONS = 100_000
ACE_TOL = 1e-12


@dataclass(frozen=True)
class SearchBudget:
    """Grid resolution (points per angular dimension) and the seed
    recorded in every report."""

    grid_resolution: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise ResolutionError("grid resolution must be at least 8")


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence of a matrix of distributions against one
    reference (strictly positive)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q[np.newaxis, :]), 0.0)
    return terms.sum(axis=1)


def _direction_grid(dim: int, resolution: int) -> np.ndarray:
    """Unit vectors covering the sphere in ``dim`` dimensions, one angular
    grid per dimension of freedom (antipodes are equivalent here)."""
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        theta = np.linspace(0.0, math.pi, resolution, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        theta = np.linspace(0.0, math.pi, resolution, endpoint=False)
        phi = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        return np.stack(
            [np.cos(tt), np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp)], axis=-1
        ).reshape(-1, 3)
    raise DimensionMismatchError("angular grids support at most 3 free dimensions")


@dataclass(frozen=True, eq=False)
class BruteP2PResult:
    best_ratio: float
    best_direction: np.ndarray
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "best_direction", _freeze(self.best_direction))


def brute_p2p(
    w: ChannelMatrix, px: Distribution, epsilon: float, budget: SearchBudget
) -> BruteP2PResult:
    """Grid maximization of the exact information ratio ``I(U;Y)/I(U;X)``
    over binary symmetric local ensembles ``P_X +- eps sqrt(P_X) psi``.

    The directions run over an exhaustive angular grid of the unit sphere
    orthogonal to ``sqrt(P_X)`` (input alphabets up to four symbols);
    both informations are exact divergence sums, so the result is an
    independent reference for the contraction coefficient.
    """
    if w.input_size > 4:
        raise DimensionMismatchError("brute-force search supports at most 4 input symbols")
    px.require_strictly_positive("operating point")
    q = valid_plane_basis(px)
    cands = _direction_grid(q.shape[1], budget.grid_resolution)
    psis = cands @ q.T
    j_dirs = psis * px.sqrt()[np.newaxis, :]
    p_plus = px.probs[np.newaxis, :] + epsilon * j_dirs
    p_minus = px.probs[np.newaxis, :] - epsilon * j_dirs
    valid = (p_plus.min(axis=1) >= 0) & (p_minus.min(axis=1) >= 0)
    if not np.any(valid):
        raise ResolutionError("no grid direction stays on the simplex at this scale")
    py = w.entries @ px.probs
    ix = 0.5 * (_kl_rows(p_plus, px.probs) + _kl_rows(p_minus, px.probs))
    iy = 0.5 * (
        _kl_rows(p_plus @ w.entries.T, py) + _kl_rows(p_minus @ w.entries.T, py)
    )
    ratio = np.where(valid & (ix > 0), iy / np.where(ix > 0, ix, 1.0), -np.inf)
    j = int(np.argmax(ratio))
    return BruteP2PResult(
        best_ratio=float(ratio[j]), best_direction=psis[j], rng_seed=budget.rng_seed
    )


def ace_correlation(joint: np.ndarray, tol: float = ACE_TOL, max_iterations: int = ACE_MAX_ITERATIONS) -> float:
    """Maximal correlation by alternating conditional expectations.

    Power iteration on zero-mean functions: condition on one variable,
    recenter, condition back, renormalize; the correlation estimates
    increase to the maximal correlation.  Stops when the estimate moves
    by less than ``tol`` (relative); raises :class:`BudgetError` if the
    iteration budget runs out first.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise DimensionMismatchError("joint must be a 2-D array over (x, y)")
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
    for _ in range(max_iterations):
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
        if abs(rho - rho_prev) <= tol * max(rho, 1.0):
            return rho
        rho_prev = rho
    raise BudgetError(
        f"alternating expectations did not settle in {max_iterations} iterations",
        best_gap=abs(rho - rho_prev),
    )


@dataclass(frozen=True)
class SRatioResult:
    lower_bound: float
    nonlocal_best: float
    local_best: float
    rng_seed: int


def _simplex_grid(n: int, divisions: int) -> np.ndarray:
    """All compositions of ``divisions`` into ``n`` parts, as points on
    the simplex."""
    pts = []
    for combo in itertools.combinations(range(divisions + n - 1), n - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(divisions + n - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / divisions


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
    """
    if w.input_size > 3:
        raise DimensionMismatchError("kernel-grid search supports at most 3 input symbols")
    px.require_strictly_positive("operating point")
    py = w.entries @ px.probs
    kernels = _simplex_grid(w.input_size, budget.grid_resolution)
    ky = kernels @ w.entries.T
    dx0 = _kl_rows(kernels, px.probs)
    dy0 = _kl_rows(ky, py)
    best = 0.0
    for i in range(1, budget.grid_resolution):
        alpha = i / budget.grid_resolution
        q1 = (px.probs[np.newaxis, :] - alpha * kernels) / (1.0 - alpha)
        ok = q1.min(axis=1) >= -1e-15
        if not np.any(ok):
            continue
        q1 = np.clip(q1, 0.0, None)
        ix = alpha * dx0 + (1 - alpha) * _kl_rows(q1, px.probs)
        iy = alpha * dy0 + (1 - alpha) * _kl_rows(q1 @ w.entries.T, py)
        ratio = np.where(ok & (ix > 1e-15), iy / np.where(ix > 0, ix, 1.0), -np.inf)
        best = max(best, float(ratio.max()))
    local_budget = SearchBudget(
        grid_resolution=max(budget.grid_resolution, 360),
        rng_seed=budget.rng_seed,
    )
    local = brute_p2p(w, px, 1e-3, local_budget).best_ratio
    return SRatioResult(
        lower_bound=max(best, local),
        nonlocal_best=best,
        local_best=local,
        rng_seed=budget.rng_seed,
    )


@dataclass(frozen=True, eq=False)
class BruteBroadcastResult:
    lambda_estimate: float
    angles: tuple
    weights: tuple
    rng_seed: int


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
    enumeration reads no resolution from ``budget``; only its ``rng_seed``
    is recorded.
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
            rng_seed=budget.rng_seed,
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
        rng_seed=budget.rng_seed,
    )
