"""Solvers for linear information coupling problems.

Point to point, the best local coupling direction is just the second
right singular vector of the coupling matrix.  Broadcasting a common
message to K receivers turns this into a max-min over K quadratic forms
on the valid-perturbation plane,

    max { min_i tr(G_i M) :  M >= 0,  tr M = 1,  M v0 = 0 },

with ``G_i = B_i^T B_i``.  Its convex dual is
``min_{w in simplex} lambda_max(Pi (sum_i w_i G_i) Pi)``, and this module
closes the two by column generation (Kelley's cutting-plane method on the
dual): a linear program mixes rank-one columns into the best Gram matrix
they span, its dual weights ``w`` query the largest eigenvalue of the
weighted forms, and the top eigenvectors become new columns until the
primal and dual values certify a gap of at most 1e-7.  An achieving
ensemble of antipodal perturbation pairs is read off the optimal Gram
matrix.  Restricting ``M`` to rank one gives the best single shared
direction (max-min-fair multicast beamforming), for which the program
above is the semidefinite relaxation.  On a 2-D plane each receiver's
value is affine in ``(cos 2t, sin 2t)``, so the exact answer is one of
finitely many circle points; on larger planes the relaxation's Gram
matrix seeds an ascent by exact great-circle searches and its dual value
bounds the remaining gap.  For a common source feeding a multiple
access channel the per-transmitter coupling matrices, each restricted to
its valid plane, stack side by side and one top singular pair answers
the question, coherent combining gain included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .channel import SIGN_ATOL, TIE_ATOL, ChannelMatrix, Dtm, build_dtm, valid_plane_basis
from .errors import (
    BudgetError,
    DegenerateOutputError,
    DimensionMismatchError,
    InfeasibleError,
    InputMismatchError,
)
from .prob import (
    ConditionalFamily,
    Distribution,
    WeightedVector,
    _freeze,
    kl_divergence,
)
from .tensor import kron

ENSEMBLE_ATOL = 1e-9
GAP_TOL = 1e-7
SHARED_POINT_ATOL = 1e-10
CG_GAP = 1e-10
CG_ROUNDS = 200
MAC_PRIVATE_FLOOR = 1e-12
VALUE_ATOL = 1e-15
ASCENT_SWEEPS = 1000


@dataclass(frozen=True, eq=False)
class PerturbationEnsemble:
    """An auxiliary law together with one weighted direction per value.

    Valid ensembles have unit average squared norm, every direction
    orthogonal to ``sqrt(P_X)``, and zero mean, which makes all the
    materialized conditionals valid distributions with the operating
    point as their exact mixture.
    """

    u_law: Distribution
    directions: tuple[WeightedVector, ...]
    epsilon: float

    def __post_init__(self):
        directions = tuple(self.directions)
        if len(directions) != self.u_law.alphabet_size:
            raise DimensionMismatchError("one direction per auxiliary value required")
        ref = directions[0].reference
        for d in directions:
            if d.reference is not ref and not np.array_equal(
                d.reference.probs, ref.probs
            ):
                raise InputMismatchError("ensemble directions use different references")
        pu = self.u_law.probs
        coords = np.stack([d.coords for d in directions])
        second_moment = float(pu @ np.sum(coords**2, axis=1))
        if abs(second_moment - 1.0) > ENSEMBLE_ATOL:
            raise InputMismatchError(
                f"ensemble second moment is {second_moment!r}, not 1"
            )
        v0 = ref.sqrt()
        overlap = float(np.max(np.abs(coords @ v0)))
        if overlap > ENSEMBLE_ATOL:
            raise InputMismatchError(
                f"a direction overlaps sqrt(P_X) by {overlap!r}"
            )
        mean = float(np.max(np.abs(pu @ coords)))
        if mean > ENSEMBLE_ATOL:
            raise InputMismatchError(f"ensemble mean deviates from 0 by {mean!r}")
        object.__setattr__(self, "directions", directions)

    @property
    def reference(self) -> Distribution:
        return self.directions[0].reference

    @property
    def cardinality(self) -> int:
        return self.u_law.alphabet_size

    def conditional_family(self, epsilon: float | None = None) -> ConditionalFamily:
        """Materialize the conditionals ``P_X + eps * sqrt(P_X) * psi_u``."""
        eps = self.epsilon if epsilon is None else epsilon
        base = self.reference.probs
        root = self.reference.sqrt()
        kernels = tuple(
            Distribution(base + eps * root * d.coords) for d in self.directions
        )
        return ConditionalFamily(self.u_law, kernels)

    def gram(self) -> np.ndarray:
        """Second-moment matrix ``sum_u P_U(u) psi_u psi_u^T``."""
        coords = np.stack([d.coords for d in self.directions])
        return (coords.T * self.u_law.probs) @ coords


def antipodal_pair_ensemble(psi: np.ndarray, ref: Distribution, epsilon: float) -> PerturbationEnsemble:
    """Binary equiprobable ensemble along ``+psi`` and ``-psi``."""
    psi = np.asarray(psi, dtype=float)
    psi = psi / np.linalg.norm(psi)
    return PerturbationEnsemble(
        u_law=Distribution(np.array([0.5, 0.5])),
        directions=(WeightedVector(psi, ref), WeightedVector(-psi, ref)),
        epsilon=epsilon,
    )


@dataclass(frozen=True, eq=False)
class P2PSolution:
    ensemble: PerturbationEnsemble
    rate: float  # nats
    sigma1: float
    ambiguous: bool


def solve_p2p(dtm: Dtm, epsilon: float) -> P2PSolution:
    """Optimal local coupling for a single receiver.

    The best direction is the second right singular vector; a binary
    equiprobable auxiliary along its antipodes satisfies every ensemble
    constraint by construction and achieves rate ``eps^2 sigma_1^2 / 2``
    nats.  When the second singular value is tied the returned maximizer
    is one of many and the ambiguity flag is set.
    """
    s = dtm.spectrum
    if len(s) < 2:
        raise DimensionMismatchError("alphabets too small for a coupling direction")
    sigma1 = float(s.singular_values[1])
    ambiguous = len(s) > 2 and sigma1 - float(s.singular_values[2]) <= TIE_ATOL
    ensemble = antipodal_pair_ensemble(s.right_vectors[:, 1], dtm.input, epsilon)
    rate = 0.5 * epsilon**2 * sigma1**2
    return P2PSolution(ensemble=ensemble, rate=rate, sigma1=sigma1, ambiguous=ambiguous)


def _require_shared_input(dtms) -> Distribution:
    if not dtms:
        raise InputMismatchError("need at least one coupling matrix")
    ref = dtms[0].input
    for d in dtms[1:]:
        if float(np.max(np.abs(d.input.probs - ref.probs))) > SHARED_POINT_ATOL:
            raise InputMismatchError("receivers do not share the input operating point")
    return ref


def _plane_forms(dtms):
    """Shared operating point, valid-plane basis ``Q``, and the stack of
    each receiver's quadratic form ``Q^T B_i^T B_i Q`` on that plane."""
    px = _require_shared_input(dtms)
    q = valid_plane_basis(px)
    forms = np.stack([q.T @ (d.matrix.T @ d.matrix) @ q for d in dtms])
    return px, q, 0.5 * (forms + forms.transpose(0, 2, 1))


def _maxmin_lp(ratings: np.ndarray):
    """``max_p min_i (ratings @ p)_i`` over the probability simplex.

    Returns the optimal mixture ``p`` and the LP's dual weights over the
    rows, which lie on the simplex as well.
    """
    k, n = ratings.shape
    c_vec = np.zeros(n + 1)
    c_vec[-1] = -1.0
    res = linprog(
        c_vec,
        A_ub=np.hstack([-ratings, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
        b_eq=np.ones(1),
        bounds=[(0, None)] * n + [(None, None)],
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise BudgetError(f"max-min linear program failed: {res.message}", best_gap=None)
    p = np.maximum(res.x[:n], 0.0)
    p /= p.sum()
    w = np.abs(np.asarray(res.ineqlin.marginals))
    return p, w / w.sum()


@dataclass(frozen=True, eq=False)
class BroadcastSolution:
    """Max-min common-message coupling across K receivers.

    ``value`` is the primal max-min, certified by ``dual_weights`` whose
    dual value exceeds it by at most ``gap``.  ``gram`` is the achieving
    second-moment matrix (PSD, unit trace, annihilates ``sqrt(P_X)``)
    and ``ensemble`` realizes it with antipodal direction pairs, so the
    auxiliary cardinality is at most twice the Gram rank.
    """

    value: float
    ensemble: PerturbationEnsemble
    dual_weights: np.ndarray
    dual_value: float
    gap: float
    gram: np.ndarray
    system_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dual_weights", _freeze(self.dual_weights))
        object.__setattr__(self, "gram", _freeze(self.gram))
        object.__setattr__(self, "system_values", _freeze(self.system_values))

    @property
    def cardinality(self) -> int:
        return self.ensemble.cardinality


def _ratings(forms, cols: np.ndarray) -> np.ndarray:
    """Quadratic image ``c^T H_i c`` of every column under every form."""
    return np.stack([np.einsum("jd,de,je->j", cols, h, cols) for h in forms])


def solve_broadcast(dtms, epsilon: float = 1.0) -> BroadcastSolution:
    """Best common-message coupling value across receivers sharing an input.

    Solves the Gram relaxation exactly by column generation.  Each round
    solves the max-min linear program over mixtures of the rank-one
    columns found so far (one per receiver's top eigenvector to start);
    the mixture is a primal Gram matrix, and the LP's dual weights ``w``
    query the largest eigenvalue of ``sum_i w_i H_i``, an upper bound on
    the optimum whose top two eigenvectors join the columns.  The best
    primal and the smallest eigenvalue seen bracket the optimum; the loop
    stops once they meet within ``CG_GAP`` or a round improves neither.
    Raises :class:`BudgetError` carrying the gap when it ends above
    ``GAP_TOL``.
    """
    k = len(dtms)
    if not 1 <= k <= 8:
        raise InputMismatchError("supported receiver counts are 1 through 8")
    px, q, forms = _plane_forms(dtms)
    cols = np.stack([np.linalg.eigh(h)[1][:, -1] for h in forms])
    ratings = _ratings(forms, cols)
    primal, dual = -math.inf, math.inf
    for _ in range(CG_ROUNDS):
        p, w = _maxmin_lp(ratings)
        m = (cols.T * p) @ cols
        m = 0.5 * (m + m.T)
        m /= np.trace(m)
        values = np.array([float(np.sum(h * m)) for h in forms])
        vals, vecs = np.linalg.eigh(sum(wi * h for wi, h in zip(w, forms)))
        improved = False
        if values.min() > primal:
            primal, m_star, system_values, improved = float(values.min()), m, values, True
        if vals[-1] < dual:
            dual, w_star, improved = float(vals[-1]), w, True
        if dual - primal <= CG_GAP or not improved:
            break
        new = vecs[:, -2:].T
        cols = np.vstack([cols, new])
        ratings = np.hstack([ratings, _ratings(forms, new)])

    gap = dual - primal
    if gap > GAP_TOL:
        raise BudgetError(f"duality gap {gap!r} above tolerance", best_gap=gap)

    gram_full = q @ m_star @ q.T
    gram_full = 0.5 * (gram_full + gram_full.T)

    mu, phi = np.linalg.eigh(m_star)
    keep = mu > 1e-12
    mu, phi = mu[keep], phi[:, keep]
    order = np.argsort(mu)[::-1]
    mu, phi = mu[order], phi[:, order]
    weights = np.repeat(mu / 2.0, 2)
    weights /= weights.sum()
    directions = []
    for j in range(mu.size):
        psi = q @ phi[:, j]
        psi /= np.linalg.norm(psi)
        directions.append(WeightedVector(psi, px))
        directions.append(WeightedVector(-psi, px))
    ensemble = PerturbationEnsemble(
        u_law=Distribution(weights), directions=tuple(directions), epsilon=epsilon
    )
    return BroadcastSolution(
        value=primal,
        ensemble=ensemble,
        dual_weights=w_star,
        dual_value=dual,
        gap=abs(gap),
        gram=gram_full,
        system_values=system_values,
    )


@dataclass(frozen=True, eq=False)
class SingleDirectionResult:
    """Best single coupling direction shared by all receivers.

    ``optimality_gap`` bounds how far ``value`` may lie below the optimum:
    0 on valid planes of dimension at most two, where the search is exact,
    and beyond that the broadcast relaxation's dual value minus ``value``.
    It is never NaN and never negative.
    """

    value: float
    psi: np.ndarray
    optimality_gap: float

    def __post_init__(self):
        object.__setattr__(self, "psi", _freeze(self.psi))


def _worst_values(forms: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``min_i u^T H_i u`` for each row ``u`` of ``us``."""
    return np.einsum("jd,kde,je->jk", us, forms, us).min(axis=1)


def _circle_candidates(forms: np.ndarray):
    """``c, g`` with ``u^T H_i u = c_i + g_i . x`` for ``u = (cos t, sin t)``
    and ``x = (cos 2t, sin 2t)``, from a stack of symmetric 2x2 forms, and
    the points where ``max_{|x|=1} min_i c_i + g_i . x`` can sit: each
    ``g_i / |g_i|``, then both points where each pair line ``f_i = f_j``
    meets the circle (foot plus and minus half the chord).  A line that
    misses the circle gives its foot twice, and a constant or repeated
    form gives non-finite rows, for callers to drop."""
    c = 0.5 * (forms[:, 0, 0] + forms[:, 1, 1])
    g = np.stack([0.5 * (forms[:, 0, 0] - forms[:, 1, 1]), forms[:, 0, 1]], axis=1)
    i, j = np.triu_indices(c.size, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = g[i] - g[j]
        nn = np.sum(n * n, axis=1)
        foot = n * ((c[j] - c[i]) / nn)[:, np.newaxis]
        half = np.sqrt(np.clip(1.0 - np.sum(foot * foot, axis=1), 0.0, None) / nn)
        chord = np.stack([-n[:, 1], n[:, 0]], axis=1) * half[:, np.newaxis]
        return c, g, np.vstack([g / np.hypot(g[:, :1], g[:, 1:]), foot + chord, foot - chord])


def _circle_directions(forms: np.ndarray) -> np.ndarray:
    """Unit ``u`` in R^2 (rows), one of which maximizes ``min_i u^T H_i u``;
    ``(1, 0)`` stands in for the case where every value is constant."""
    x = np.vstack([[1.0, 0.0], _circle_candidates(forms)[2]])
    x = x[np.all(np.isfinite(x), axis=1)]
    t = 0.5 * np.arctan2(x[:, 1], x[:, 0])
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _best_on_circle(forms: np.ndarray) -> np.ndarray:
    us = _circle_directions(forms)
    return us[int(np.argmax(_worst_values(forms, us)))]


def _tangents(forms: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
    """Search directions at the unit vector ``c``: each plane axis, then
    for each receiver, each receiver pair and each set of the ``k >= 3``
    worst receivers, the least-norm direction along which all their
    values rise at the same first-order rate."""
    grads = forms @ c
    values = grads @ c
    grads -= np.outer(values, c)
    k, worst = len(forms), np.argsort(values, kind="stable")
    sets = [[i] for i in range(k)] + [list(p) for p in itertools.combinations(range(k), 2)]
    sets += [worst[:n] for n in range(3, k + 1)]
    rises = [np.linalg.lstsq(grads[s], np.ones(len(s)), rcond=None)[0] for s in sets]
    return list(np.eye(c.size)) + rises


def _ascend(forms: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Monotone ascent of the worst value, each step an exact search on
    the great circle through ``c`` along one of :func:`_tangents`; stops
    when a sweep gains at most ``VALUE_ATOL`` or after ``ASCENT_SWEEPS``."""
    value = _worst_values(forms, c[np.newaxis])[0]
    for _ in range(ASCENT_SWEEPS):
        start = value
        for t in _tangents(forms, c):
            # orthonormal (c, t'); t' is arbitrary when t is parallel to c
            basis = np.linalg.qr(np.stack([c, t], axis=1))[0]
            cand = basis @ _best_on_circle(basis.T @ forms @ basis)
            cand /= np.linalg.norm(cand)
            v = _worst_values(forms, cand[np.newaxis])[0]
            if v > value:
                c, value = cand, v
        if value - start <= VALUE_ATOL:
            break
    return c


def solve_broadcast_single_direction(dtms) -> SingleDirectionResult:
    """Max over unit directions (orthogonal to ``sqrt(P_X)``) of the worst
    receiver's squared image, ``max_{|c|=1} min_i c^T H_i c``.

    On a valid plane of dimension at most two the answer is exact: the
    best of :func:`_circle_directions`.  Beyond that the problem's
    semidefinite relaxation is the Gram program of :func:`solve_broadcast`
    (receiver counts 1 through 8).  The exact circle optimum on the span
    of its Gram matrix's top two eigenvectors (which holds the optimum
    when that matrix is rank one) starts :func:`_ascend`, and the
    relaxation's dual value bounds the distance to the optimum.
    """
    _, q, forms = _plane_forms(dtms)
    dim, bound = q.shape[1], None
    if dim == 1:
        us = np.ones((1, 1))
    elif dim == 2:
        us = _circle_directions(forms)
    else:
        sol = solve_broadcast(dtms)
        top = np.linalg.eigh(q.T @ sol.gram @ q)[1][:, -2:]
        us = _ascend(forms, top @ _best_on_circle(top.T @ forms @ top))[np.newaxis]
        bound = sol.dual_value
    values, psis = _worst_values(forms, us), us @ q.T
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    # each first entry above SIGN_ATOL in magnitude positive
    first = np.argmax(np.abs(psis) > SIGN_ATOL, axis=1)
    psis *= np.sign(psis[np.arange(len(psis)), first])[:, np.newaxis]
    # symmetric receivers tie several directions; the lexicographically
    # largest psi, compared at 9 decimals so that roundoff cannot decide,
    # keeps the result independent of the receivers' order
    tied = np.nonzero(values >= values.max() - VALUE_ATOL)[0]
    j = max(tied, key=lambda j: tuple(np.round(psis[j], 9)))
    gap = 0.0 if bound is None else max(bound - float(values[j]), 0.0)
    return SingleDirectionResult(float(values[j]), psis[j], gap)


@dataclass(frozen=True, eq=False)
class DiagonalInstance:
    """A family of diagonal quadratic forms, plus the orthogonal change of
    basis that related the original singular systems (kept for
    provenance; the solver uses the diagonals only)."""

    thetas: tuple
    basis_change: np.ndarray | None = None

    def __post_init__(self):
        thetas = tuple(np.asarray(t, dtype=float) for t in self.thetas)
        if not thetas:
            raise DimensionMismatchError("need at least one diagonal system")
        m = thetas[0].size
        for t in thetas:
            if t.ndim != 1 or t.size != m:
                raise DimensionMismatchError("diagonal systems must share one length")
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise InfeasibleError("diagonal entries must be finite and non-negative")
        if self.basis_change is not None:
            phi = np.asarray(self.basis_change, dtype=float)
            if float(np.max(np.abs(phi.T @ phi - np.eye(phi.shape[1])))) > 1e-10:
                raise DimensionMismatchError("basis change must be orthogonal")
            object.__setattr__(self, "basis_change", _freeze(phi))
        object.__setattr__(self, "thetas", tuple(_freeze(t) for t in thetas))


@dataclass(frozen=True, eq=False)
class DiagonalMaxMinResult:
    c_star: np.ndarray
    support: tuple
    value: float

    def __post_init__(self):
        object.__setattr__(self, "c_star", _freeze(self.c_star))


def diagonal_maxmin(inst: DiagonalInstance, target_levels=None) -> DiagonalMaxMinResult:
    """Optimal unit vector for a family of commuting (diagonal) systems.

    On squared coordinates every quadratic form is linear, so both the
    max-min problem and the equality-constrained variant (fix the first
    systems at ``target_levels``, maximize the last) are linear programs
    over the simplex.  A vertex optimum is requested, which bounds the
    support size by the number of systems.
    """
    squares = np.stack([t**2 for t in inst.thetas])
    k, m = squares.shape
    if target_levels is not None:
        levels = np.asarray(target_levels, dtype=float)
        if levels.size != k - 1:
            raise DimensionMismatchError(
                "need one target level per system except the last"
            )
        res = linprog(
            -squares[-1],
            A_eq=np.vstack([squares[:-1], np.ones((1, m))]),
            b_eq=np.concatenate([levels, [1.0]]),
            bounds=[(0, None)] * m,
            method="highs-ds",
        )
        if res.status == 2:
            raise InfeasibleError("no unit vector attains the requested levels")
        if not res.success:
            raise BudgetError("diagonal linear program failed")
        s = np.maximum(res.x, 0.0)
        value = float(squares[-1] @ s)
        s /= s.sum()
    else:
        s, _ = _maxmin_lp(squares)
        value = float(np.min(squares @ s))
    support = tuple(int(i) for i in np.nonzero(s > 1e-12)[0])
    return DiagonalMaxMinResult(c_star=np.sqrt(s), support=support, value=value)


# ---------------------------------------------------------------------------
# Multiple access with a common source
# ---------------------------------------------------------------------------


def mac_marginal_channels(joint: np.ndarray, input_dists) -> tuple[list[ChannelMatrix], Distribution]:
    """Per-transmitter channels seen through the others' operating points.

    ``joint[y, x_1, ..., x_k]`` is the conditional law of the output;
    transmitter ``i``'s effective channel averages the joint over every
    other transmitter's input distribution, and all of them share the
    output distribution at the operating point.
    """
    joint = np.asarray(joint, dtype=float)
    k = joint.ndim - 1
    if k < 1 or len(input_dists) != k:
        raise DimensionMismatchError("one input distribution per transmitter required")
    col_sums = joint.sum(axis=0)
    if float(np.max(np.abs(col_sums - 1.0))) > 1e-9:
        raise DimensionMismatchError("joint channel columns must sum to 1")
    channels = []
    for i in range(k):
        tmp = joint
        axis = 1
        for j in range(k):
            if j == i:
                axis += 1
                continue
            tmp = np.tensordot(tmp, input_dists[j].probs, axes=([axis], [0]))
        channels.append(ChannelMatrix(tmp))
    py = channels[0].entries @ input_dists[0].probs
    return channels, Distribution(py)


def build_mac_dtms(joint: np.ndarray, input_dists) -> list[Dtm]:
    channels, _ = mac_marginal_channels(joint, input_dists)
    return [build_dtm(w, px) for w, px in zip(channels, input_dists)]


@dataclass(frozen=True, eq=False)
class MacSolution:
    """Common-source coupling across transmitters of a multiple access
    channel.

    Each per-transmitter coupling matrix is restricted to its valid plane,
    ``B_i Q_i``, and the restrictions stack into ``[B_1 Q_1 ... B_k Q_k]``;
    its top singular value is the common-source coupling coefficient.
    The achieving stacked vector is the top right vector lifted block by
    block, so each block is orthogonal to its own ``sqrt(P_X_i)`` by
    construction (residuals reported), and ``gain_db`` compares the
    common coefficient against the best private one.
    """

    sigma_common: float
    stacked_vector: np.ndarray
    block_orthogonality_residuals: np.ndarray
    gain_db: float
    private_sigmas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stacked_vector", _freeze(self.stacked_vector))
        object.__setattr__(
            self,
            "block_orthogonality_residuals",
            _freeze(self.block_orthogonality_residuals),
        )
        object.__setattr__(self, "private_sigmas", _freeze(self.private_sigmas))

    def blocks(self, sizes) -> list[np.ndarray]:
        out = []
        start = 0
        for n in sizes:
            out.append(self.stacked_vector[start : start + n])
            start += n
        return out


def _require_shared_output(dtms) -> Distribution:
    if not dtms:
        raise InputMismatchError("need at least one transmitter")
    ref = dtms[0].output
    for d in dtms[1:]:
        if float(np.max(np.abs(d.output.probs - ref.probs))) > SHARED_POINT_ATOL:
            raise InputMismatchError(
                "transmitters do not share the output distribution"
            )
    return ref


def _common_pair(mats, dists):
    """Top singular value of ``[B_1 Q_1 ... B_k Q_k]`` and its right
    vector lifted to ``[Q_1 c_1; ...; Q_k c_k]``, where ``Q_i`` spans the
    valid plane of ``dists[i]``; signed like a spectrum's right vectors."""
    qs = [valid_plane_basis(p) for p in dists]
    stacked = np.hstack([m @ q for m, q in zip(mats, qs)])
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    if s.size == 0:
        return 0.0, np.zeros(sum(q.shape[0] for q in qs))
    cuts = np.cumsum([q.shape[1] for q in qs])[:-1]
    psi = np.concatenate([q @ c for q, c in zip(qs, np.split(vt[0], cuts))])
    # a unit vector always has an entry above SIGN_ATOL
    return float(s[0]), psi * np.sign(psi[np.abs(psi) > SIGN_ATOL][0])


def solve_mac_common(dtms) -> MacSolution:
    """Common-source coupling coefficient from the stacked coupling matrix.

    Raises :class:`DegenerateOutputError` when no private coefficient
    exceeds ``MAC_PRIVATE_FLOOR``: the common one is then at most
    ``sqrt(k)`` times that, and the gain would be 0/0."""
    _require_shared_output(dtms)
    private = np.array([d.second_singular_value for d in dtms])
    if float(np.max(private)) <= MAC_PRIVATE_FLOOR:
        raise DegenerateOutputError(
            f"no private coupling coefficient exceeds {MAC_PRIVATE_FLOOR}; the gain is 0/0"
        )
    sigma_common, psi = _common_pair([d.matrix for d in dtms], [d.input for d in dtms])
    cuts = np.cumsum([d.input.alphabet_size for d in dtms])[:-1]
    residuals = [float(b @ d.input.sqrt()) for b, d in zip(np.split(psi, cuts), dtms)]
    gain_db = 10.0 * math.log10(sigma_common**2 / float(np.max(private) ** 2))
    return MacSolution(
        sigma_common=sigma_common,
        stacked_vector=psi,
        block_orthogonality_residuals=np.array(residuals),
        gain_db=gain_db,
        private_sigmas=private,
    )


def mac_tensorization_check(dtms) -> float:
    """Gap between the two-letter and one-letter common-source coefficients.

    Computes the common-source coefficient of the stacked letterwise
    Kronecker squares on their valid planes and compares it with the
    one-letter coefficient; tensorization makes the difference vanish.
    """
    _require_shared_output(dtms)
    one, _ = _common_pair([d.matrix for d in dtms], [d.input for d in dtms])
    two, _ = _common_pair(
        [kron(d.matrix, d.matrix) for d in dtms],
        [Distribution(np.kron(d.input.probs, d.input.probs)) for d in dtms],
    )
    return abs(two - one)


# ---------------------------------------------------------------------------
# Two-receiver rate-region split
# ---------------------------------------------------------------------------


def split_rate_region(dtm1: Dtm, dtm2: Dtm, splits) -> list[tuple[float, float, float]]:
    """Rate triples (common, private 1, private 2) for given budget splits.

    Each split ``(e0sq, e1sq, e2sq)`` budgets squared perturbation sizes
    for the common and private messages; the rates in nats are half the
    budget times the respective coupling coefficients.
    """
    lam = solve_broadcast([dtm1, dtm2]).value
    s1 = dtm1.second_singular_value**2
    s2 = dtm2.second_singular_value**2
    out = []
    for split in splits:
        e0, e1, e2 = (float(v) for v in split)
        if e0 < 0 or e1 < 0 or e2 < 0:
            raise InputMismatchError("split components must be non-negative")
        out.append((0.5 * e0 * lam, 0.5 * e1 * s1, 0.5 * e2 * s2))
    return out


def superposition_information(base: Distribution, families) -> float:
    """Exact input-side information of independently superposed families.

    ``families`` is a sequence of ``(u_law, directions, epsilon)``
    triples; each direction set is unweighted (per-symbol deltas), one
    row per auxiliary value, zero-mean under its law.  The superposed
    conditional for a joint value adds every family's scaled direction to
    the base, and the mixture over all joint values is exactly the base,
    so the mutual information is the weighted divergence sum.
    """
    law_list = [np.asarray(law, dtype=float) for law, _, _ in families]
    dir_list = [np.asarray(dirs, dtype=float) for _, dirs, _ in families]
    eps_list = [float(eps) for _, _, eps in families]
    total = 0.0
    for combo in itertools.product(*(range(law.size) for law in law_list)):
        weight = 1.0
        point = base.probs.copy()
        for law, dirs, eps, u in zip(law_list, dir_list, eps_list, combo):
            weight *= law[u]
            point = point + eps * dirs[u]
        if weight == 0.0:
            continue
        total += weight * kl_divergence(Distribution(point), base)
    return total
