"""Independent brute-force and iterative references for the solvers.

Every closed-form claim in the package has a desk-scale check here that
reaches the same number along a different computational path: exhaustive
angular grids with exact divergence evaluations for the coupling
solvers, and an alternating conditional-expectation iteration for the
maximal correlation.  None of these routines touch the singular-value
machinery they validate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .coupling import _plane_forms, valid_plane_basis
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


def _weight_grid(k: int, divisions: int) -> np.ndarray:
    return _simplex_grid(k, divisions)


def brute_broadcast(dtms, budget: SearchBudget) -> BruteBroadcastResult:
    """Exhaustive grid search over ensembles of antipodal direction pairs.

    Directions come from a uniform angular grid of the valid-perturbation
    plane (which must have dimension at most two); ensembles combine up
    to K of them with simplex-gridded weights.  A coarse full sweep picks
    the neighborhood, a fine weight grid rescans it at full angular
    resolution.  Everything is evaluated as exact quadratic images, so
    the result is an independent lower reference for the max-min solver.
    """
    k = len(dtms)
    if k < 1:
        raise DimensionMismatchError("need at least one receiver")
    if k > 3:
        raise DimensionMismatchError("exhaustive ensemble search supports at most 3 receivers")
    _, q, h_list = _plane_forms(dtms)
    if q.shape[1] > 2:
        raise DimensionMismatchError(
            "exhaustive ensemble search needs a perturbation plane of dimension <= 2"
        )

    if q.shape[1] == 1:
        value = min(float(h[0, 0]) for h in h_list)
        return BruteBroadcastResult(
            lambda_estimate=value,
            angles=(0.0,) * k,
            weights=(1.0,) + (0.0,) * (k - 1),
            rng_seed=budget.rng_seed,
        )

    resolution = budget.grid_resolution
    theta = np.linspace(0.0, math.pi, resolution, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    profiles = np.stack([np.einsum("jd,de,je->j", dirs, h, dirs) for h in h_list])

    def sweep(angle_idx: np.ndarray, divisions: int):
        wt = _weight_grid(k, divisions)
        combos = np.array(
            list(itertools.combinations_with_replacement(range(angle_idx.size), k)),
            dtype=int,
        )
        best_val, best_combo, best_wt = -math.inf, None, None
        chunk = max(1, 20_000_000 // max(1, wt.shape[0] * k * k))
        for start in range(0, combos.shape[0], chunk):
            part = combos[start : start + chunk]
            prof = profiles[:, angle_idx[part]]  # (k_sys, n_combo, k)
            vals = np.einsum("snk,wk->snw", prof, wt).min(axis=0)  # (n_combo, n_w)
            flat = int(np.argmax(vals))
            ci, wi = divmod(flat, wt.shape[0])
            if vals[ci, wi] > best_val:
                best_val = float(vals[ci, wi])
                best_combo = angle_idx[part[ci]]
                best_wt = wt[wi]
        return best_val, best_combo, best_wt

    stride = max(1, resolution // 45)
    coarse_idx = np.arange(0, resolution, stride)
    _, combo, _ = sweep(coarse_idx, 12)
    window = set()
    for idx in combo:
        for off in range(-2 * stride, 2 * stride + 1):
            window.add(int(idx + off) % resolution)
    fine_idx = np.array(sorted(window))
    value, combo, weights = sweep(fine_idx, 60)
    return BruteBroadcastResult(
        lambda_estimate=value,
        angles=tuple(float(theta[i]) for i in combo),
        weights=tuple(float(v) for v in weights),
        rng_seed=budget.rng_seed,
    )
