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
they span, and the largest eigenvalue of the weighted forms is queried at
its dual weights ``w`` and, after the first round, at three more points
between the best dual weights so far and ``w`` (in-out separation,
Ben-Ameur & Neto 2007), in one stacked eigensolve.  The top eigenvectors
of every query become new columns until the primal and dual values meet
within ``CG_GAP`` = 1e-10 (a gap left above ``GAP_TOL`` = 1e-7 raises).
An achieving ensemble of antipodal perturbation pairs is read off the
optimal Gram matrix.  Restricting ``M`` to rank one gives the best single
shared direction (max-min-fair multicast beamforming), for which the
program above is the semidefinite relaxation.  On a 2-D plane each
receiver's value is affine in ``(cos 2t, sin 2t)``, so the exact answer
is one of finitely many circle points; on larger planes the relaxation's
Gram matrix seeds an ascent by exact great-circle searches and its dual
value bounds the remaining gap, ending the ascent within ``CG_GAP``.  For
a common source feeding a multiple access channel the per-transmitter
coupling matrices, each restricted to its valid plane, stack side by side
and one top singular pair answers the question, coherent combining gain
included.

The linear programs go through one dense revised simplex in numpy.  The
column generation keeps its constraint matrix and optimal basis from
round to round: new columns enter at 0, so the basis stays feasible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelMatrix, Dtm, build_dtm, canonical_sign, renyi_correlation, unit_columns, valid_plane_basis,
)
from .errors import (
    BudgetError,
    DegenerateOutputError,
    DimensionMismatchError,
    InfeasibleError,
    InputMismatchError,
    InvalidDistributionError,
)
from .prob import (
    ConditionalFamily,
    Distribution,
    WeightedVector,
    _freeze,
    mutual_information,
    record,
    require_nonnegative,
)
from .tensor import kron

ENSEMBLE_ATOL = 1e-9
GAP_TOL = 1e-7
SHARED_POINT_ATOL = 1e-10
CG_GAP = 1e-10
CG_ROUNDS = 200
PRICING_STEPS = (0.25, 0.5, 0.75, 1.0)
MAC_PRIVATE_FLOOR = 1e-12
VALUE_ATOL = 1e-15
ASCENT_SWEEPS = 1000
ASCENT_BATCH = 4
SIMPLEX_TOL = 1e-12
PIVOT_TOL = 1e-11
SIMPLEX_PIVOTS = 1000
_pairs = functools.cache(functools.partial(np.triu_indices, k=1))  # i < j among k forms


@record("coords")
class PerturbationEnsemble:
    """An auxiliary law together with one weighted direction per value.

    ``coords[u]`` is the direction of auxiliary value ``u`` in weighted
    coordinates around the one operating point ``reference``: an
    ``(m, n)`` matrix for ``m`` auxiliary values on ``n`` input symbols.
    Valid ensembles have unit average squared norm, every direction
    orthogonal to ``sqrt(P_X)``, and zero mean, which makes all the
    materialized conditionals valid distributions with the operating
    point as their exact mixture.  A non-finite coordinate fails them.
    """

    u_law: Distribution
    reference: Distribution
    coords: np.ndarray
    epsilon: float

    def __post_init__(self):
        if self.coords.shape != (self.u_law.alphabet_size, self.reference.alphabet_size):
            raise DimensionMismatchError(f"coords shape {self.coords.shape} is not (auxiliary values, symbols)")
        require_nonnegative(self.epsilon, "epsilon")
        pu = self.u_law.probs
        second_moment = float(pu @ np.sum(self.coords**2, axis=1))
        if not abs(second_moment - 1.0) <= ENSEMBLE_ATOL:
            raise InputMismatchError(f"ensemble second moment is {second_moment!r}, not 1")
        overlap = float(np.max(np.abs(self.coords @ self.reference.sqrt())))
        if not overlap <= ENSEMBLE_ATOL:
            raise InputMismatchError(f"a direction overlaps sqrt(P_X) by {overlap!r}")
        mean = float(np.max(np.abs(pu @ self.coords)))
        if not mean <= ENSEMBLE_ATOL:
            raise InputMismatchError(f"ensemble mean deviates from 0 by {mean!r}")

    @property
    def directions(self) -> tuple[WeightedVector, ...]:
        """One :class:`WeightedVector` per auxiliary value, rows of ``coords``."""
        return tuple(WeightedVector(c, self.reference) for c in self.coords)

    @property
    def cardinality(self) -> int:
        return self.u_law.alphabet_size

    def conditional_family(self, epsilon: float | None = None) -> ConditionalFamily:
        """Materialize the conditionals ``P_X + eps * sqrt(P_X) * psi_u``."""
        eps = self.epsilon if epsilon is None else epsilon
        points = self.reference.probs + eps * self.reference.sqrt() * self.coords
        return ConditionalFamily(self.u_law, tuple(Distribution(p) for p in points))

    def gram(self) -> np.ndarray:
        """Second-moment matrix ``sum_u P_U(u) psi_u psi_u^T``."""
        return (self.coords.T * self.u_law.probs) @ self.coords


def _antipodal_ensemble(psis, mass, ref: Distribution, epsilon: float) -> PerturbationEnsemble:
    """Each direction of ``psis``, normalized, and its negative, the pair
    sharing its entry of ``mass`` (rescaled to sum to 1) equally."""
    weights = np.repeat(np.asarray(mass, dtype=float) / 2.0, 2)
    weights /= weights.sum()
    units = np.stack([psi / np.linalg.norm(psi) for psi in psis])
    coords = np.stack([units, -units], axis=1).reshape(2 * len(units), -1)
    return PerturbationEnsemble(Distribution(weights), ref, coords, epsilon)


def antipodal_pair_ensemble(psi: np.ndarray, ref: Distribution, epsilon: float) -> PerturbationEnsemble:
    """Binary equiprobable ensemble along ``+psi`` and ``-psi``."""
    return _antipodal_ensemble([np.asarray(psi, dtype=float)], [1.0], ref, epsilon)


@record()
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
    corr = renyi_correlation(dtm)
    ensemble = antipodal_pair_ensemble(dtm.right_vector(1), dtm.input, epsilon)
    rate = 0.5 * epsilon**2 * corr.rho**2
    return P2PSolution(ensemble=ensemble, rate=rate, sigma1=corr.rho, ambiguous=corr.ambiguous)


def _require_shared(dists, who: str, side: str) -> Distribution:
    """The distribution all of ``dists`` share within ``SHARED_POINT_ATOL``;
    the errors name the ``who`` holding them and their ``side``."""
    if not dists:
        raise InputMismatchError(f"no {who} given")
    ref = dists[0]
    for d in dists[1:]:
        if d.alphabet_size != ref.alphabet_size:
            raise InputMismatchError(f"{who} do not share the {side} alphabet")
        if float(np.max(np.abs(d.probs - ref.probs))) > SHARED_POINT_ATOL:
            raise InputMismatchError(f"{who} do not share the {side} distribution")
    return ref


def _plane_forms(dtms):
    """Shared operating point, valid-plane basis ``Q``, and the stack of
    each receiver's quadratic form ``Q^T B_i^T B_i Q`` on that plane."""
    px = _require_shared([d.input for d in dtms], "receivers", "input")
    q = valid_plane_basis(px)
    forms = np.stack([q.T @ (d.matrix.T @ d.matrix) @ q for d in dtms])
    return px, q, 0.5 * (forms + forms.transpose(0, 2, 1))


def _simplex(a, b, c, basis=None):
    """Dense revised simplex: ``min c @ x`` subject to ``a @ x = b`` and
    ``x >= 0``.

    ``basis`` lists one column per row whose basic solution is feasible.
    Without one, a phase 1 over one artificial column per row finds a
    basis or raises :class:`InfeasibleError`; artificial columns still
    basic after it sit at 0 and block any step that would move them.
    The basis is inverted at entry, and each pivot updates the inverse by
    the product form's rank-one eta step (Dantzig & Orchard-Hays 1954).
    Dantzig's rule picks the most negative reduced cost to enter and,
    among the rows tied in the ratio test, the largest pivot to leave.
    Once a basis comes back, the phase goes on under Bland's smallest-index
    rule, which cannot cycle in exact arithmetic; a basis that comes back
    under Bland's rule means that the reduced costs are roundoff, and the
    phase ends there.  Returns the solution, the duals ``y`` with
    ``B^T y = c_B``, the optimal basis and the pivot count; raises
    :class:`BudgetError` after ``SIMPLEX_PIVOTS`` pivots.
    """
    m, n = a.shape
    if basis is None:
        a = np.hstack([a, np.diag(np.where(b < 0, -1.0, 1.0))])
        phases = [np.r_[np.zeros(n), np.ones(m)], np.r_[c, np.zeros(m)]]
        basis = range(n, n + m)
    else:
        phases = [np.asarray(c, dtype=float)]
    basis, pivots = np.array(basis), 0
    binv = np.linalg.inv(a[:, basis])
    for phase, cost in enumerate(phases):
        stuck = phase > 0  # artificial columns after a phase 1
        bland, seen = False, set()
        while True:
            x_b, y = binv @ b, cost[basis] @ binv
            reduced = cost - y @ a
            reduced[basis] = 0.0
            if stuck:
                reduced[n:] = 0.0
            entering = (reduced < -SIMPLEX_TOL).nonzero()[0]
            if entering.size == 0:
                break
            key = frozenset(basis.tolist())
            if key in seen:
                if bland:
                    break
                bland, seen = True, set()
            seen.add(key)
            if pivots == SIMPLEX_PIVOTS:
                raise BudgetError(f"simplex used its {SIMPLEX_PIVOTS} pivots", best_gap=None)
            q = entering[0] if bland else entering[reduced[entering].argmin()]
            d = binv @ a[:, q]
            blocks = (d > PIVOT_TOL) | (stuck and (basis >= n) & (d < -PIVOT_TOL))
            if not blocks.any():
                raise BudgetError("linear program is unbounded", best_gap=None)
            ratios = np.where(blocks, np.maximum(x_b, 0.0), np.inf) / np.where(blocks, np.abs(d), 1.0)
            ties = (ratios <= ratios.min() + SIMPLEX_TOL).nonzero()[0]
            r = ties[basis[ties].argmin()] if bland else ties[np.abs(d[ties]).argmax()]
            row = binv[r] / d[r]
            binv -= d[:, np.newaxis] * row
            binv[r], basis[r] = row, q
            pivots += 1
        if phase + 1 < len(phases) and cost[basis] @ x_b > SIMPLEX_TOL * max(1.0, np.max(np.abs(b))):
            raise InfeasibleError("the linear program has no feasible point")
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = x_b[real]
    return x, y, basis, pivots


def _maxmin_master(ratings: np.ndarray):
    """``max_p min_i (ratings @ p)_i`` over the simplex as a constraint
    matrix, with columns ``t``, a slack per row, then ``p``, and rows
    ``ratings @ p - t - s = 0`` and ``sum(p) = 1``; and a feasible basis:
    the best worst-rated column, ``t`` (non-negative, as the ratings are;
    it carries the whole cost, so it never leaves) and every slack but
    that of the column's worst row.  Appended columns ``(ratings, 1)``
    keep an old optimal basis feasible."""
    k, n = ratings.shape
    a = np.block([[-np.ones((k, 1)), -np.eye(k), ratings], [np.zeros((1, k + 1)), np.ones((1, n))]])
    j = int(np.argmax(ratings.min(axis=0)))
    return a, [0, *np.delete(np.arange(1, k + 1), np.argmin(ratings[:, j])), k + 1 + j]


def _maxmin_solve(a: np.ndarray, basis):
    """:func:`_simplex` on a :func:`_maxmin_master` matrix from ``basis``:
    the mixture, dual weights, optimal basis and pivots."""
    k, cost = len(a) - 1, np.zeros(a.shape[1])
    cost[0] = -1.0
    x, y, basis, pivots = _simplex(a, np.eye(k + 1)[k], cost, basis)
    p, w = np.maximum(x[k + 1 :], 0.0), np.maximum(y[:k], 0.0)
    return p / p.sum(), w / w.sum(), basis, pivots


@record("dual_weights", "gram", "system_values")
class BroadcastSolution:
    """Max-min common-message coupling across K receivers.

    ``value`` is the primal max-min, certified by ``dual_weights`` whose
    dual value exceeds it by at most ``gap``.  ``gram`` is the achieving
    second-moment matrix (PSD, unit trace, annihilates ``sqrt(P_X)``)
    and ``ensemble`` realizes it with antipodal direction pairs, so the
    auxiliary cardinality is at most twice the Gram rank.  ``rounds``
    counts the linear programs solved on the way and ``pivots`` their
    simplex pivots.
    """

    value: float
    ensemble: PerturbationEnsemble
    dual_weights: np.ndarray
    dual_value: float
    gap: float
    gram: np.ndarray
    system_values: np.ndarray
    rounds: int
    pivots: int

    @property
    def cardinality(self) -> int:
        return self.ensemble.cardinality


def _ratings(forms, cols: np.ndarray) -> np.ndarray:
    """Quadratic image ``c^T H_i c`` of every column under every form."""
    return ((cols @ forms) * cols).sum(axis=-1)


def solve_broadcast(dtms, epsilon: float = 1.0) -> BroadcastSolution:
    """Best common-message coupling value across receivers sharing an input.

    Solves the Gram relaxation exactly by column generation.  Each round
    solves the max-min linear program over mixtures of the rank-one
    columns found so far (one per receiver's top eigenvector to start);
    the mixture is a primal Gram matrix, and the LP keeps its columns and
    optimal basis from round to round.  For any simplex point ``x`` the
    largest eigenvalue of ``sum_i x_i H_i`` bounds the optimum from above.
    The first round queries it at the LP's dual weights ``w``; later
    rounds query it at ``(1 - t) w* + t w`` for each ``t`` in
    ``PRICING_STEPS``, where ``w*`` is the best dual point so far, which
    roughly halves the number of linear programs.  The top two
    eigenvectors of every query join the columns.  The best primal and
    the smallest eigenvalue seen bracket the optimum; the loop stops once
    they meet within ``CG_GAP`` or a round improves neither.  Raises
    :class:`BudgetError` carrying the gap when it ends above ``GAP_TOL``.
    """
    k = len(dtms)
    if not 1 <= k <= 8:
        raise InputMismatchError("supported receiver counts are 1 through 8")
    px, q, forms = _plane_forms(dtms)
    cols = np.linalg.eigh(forms)[1][:, :, -1]
    a, basis = _maxmin_master(_ratings(forms, cols))
    primal, dual, pivots = -math.inf, math.inf, 0
    for rounds in range(1, CG_ROUNDS + 1):
        p, w, basis, used = _maxmin_solve(a, basis)
        pivots += used
        m = (cols.T * p) @ cols
        m = 0.5 * (m + m.T)
        m /= m.trace()
        values = (forms * m).sum(axis=(1, 2))
        improved = False
        if values.min() > primal:
            primal, m_star, system_values, improved = float(values.min()), m, values, True
        points = np.array([w] if rounds == 1 else [(1 - t) * w_star + t * w for t in PRICING_STEPS])
        vals, vecs = np.linalg.eigh((points @ forms.reshape(k, -1)).reshape(-1, *forms.shape[1:]))
        j = int(vals[:, -1].argmin())  # the first point wins a tie
        if vals[j, -1] < dual:
            dual, w_star, improved = float(vals[j, -1]), points[j], True
        if dual - primal <= CG_GAP or not improved:
            break
        new = np.swapaxes(vecs[:, :, -2:], 1, 2).reshape(-1, cols.shape[1])
        cols = np.vstack([cols, new])
        a = np.hstack([a, np.vstack([_ratings(forms, new), np.ones(len(new))])])

    gap = dual - primal
    if gap > GAP_TOL:
        raise BudgetError(f"duality gap {gap!r} above tolerance", best_gap=gap)

    gram_full = q @ m_star @ q.T
    gram_full = 0.5 * (gram_full + gram_full.T)

    mu, phi = np.linalg.eigh(m_star)
    keep = mu > 1e-12
    mu, phi = mu[keep][::-1], phi[:, keep][:, ::-1]
    return BroadcastSolution(
        value=primal,
        ensemble=_antipodal_ensemble([q @ c for c in phi.T], mu, px, epsilon),
        dual_weights=w_star,
        dual_value=dual,
        gap=abs(gap),
        gram=gram_full,
        system_values=system_values,
        rounds=rounds,
        pivots=pivots,
    )


@record("psi")
class SingleDirectionResult:
    """Best single coupling direction shared by all receivers.

    ``optimality_gap`` bounds how far ``value`` may lie below the optimum:
    0 on valid planes of dimension at most two, where the search is exact,
    and beyond that the broadcast relaxation's dual value minus ``value``.
    It is never NaN and never negative, and above ``CG_GAP`` only where
    the ascent found no step that gains.
    """

    value: float
    psi: np.ndarray
    optimality_gap: float


def _worst_values(forms: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``min_i u^T H_i u`` for each row ``u`` of ``us``, over any leading axes."""
    return np.einsum("...jd,...kde,...je->...jk", us, forms, us).min(axis=-1)


def _circle_candidates(forms: np.ndarray):
    """``c, g`` with ``u^T H_i u = c_i + g_i . x`` for ``u = (cos t, sin t)``
    and ``x = (cos 2t, sin 2t)``, from stacks of symmetric 2x2 forms (any
    leading axes), and the points (rows) where ``max_{|x|=1} min_i c_i +
    g_i . x`` can sit: each ``g_i / |g_i|``, then both points where each
    pair line ``f_i = f_j`` meets the circle (foot plus and minus half the
    chord).  A line that misses the circle gives its foot twice, and a
    constant or repeated form gives non-finite rows, for callers to set aside."""
    c = 0.5 * (forms[..., 0, 0] + forms[..., 1, 1])
    g = np.stack([0.5 * (forms[..., 0, 0] - forms[..., 1, 1]), forms[..., 0, 1]], axis=-1)
    i, j = _pairs(c.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        n = g[..., i, :] - g[..., j, :]
        nn = (n * n).sum(axis=-1)
        foot = n * ((c[..., j] - c[..., i]) / nn)[..., np.newaxis]
        half = np.sqrt((1.0 - (foot * foot).sum(axis=-1)).clip(0.0) / nn)
        chord = np.stack([-n[..., 1], n[..., 0]], axis=-1) * half[..., np.newaxis]
        return c, g, np.concatenate([g / np.hypot(g[..., :1], g[..., 1:]), foot + chord, foot - chord], axis=-2)


def _circle_directions(forms: np.ndarray) -> np.ndarray:
    """Unit ``u`` in R^2 (rows), one of which maximizes ``min_i u^T H_i u``;
    ``(1, 0)`` comes first and stands in for the non-finite candidates."""
    x = np.concatenate([np.broadcast_to([1.0, 0.0], (*forms.shape[:-3], 1, 2)), _circle_candidates(forms)[2]], axis=-2)
    x = np.where(np.isfinite(x).all(axis=-1, keepdims=True), x, [1.0, 0.0])
    t = 0.5 * np.arctan2(x[..., 1], x[..., 0])
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def _best_on_circle(forms: np.ndarray) -> np.ndarray:
    """The first best of :func:`_circle_directions` for each stack in ``forms``."""
    us = _circle_directions(forms)
    return us[np.arange(len(us)), _worst_values(forms, us).argmax(axis=-1)]


def _tangents(forms: np.ndarray, c: np.ndarray) -> np.ndarray:
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
    return np.vstack([np.eye(c.size), rises])


def _ascend(forms: np.ndarray, c: np.ndarray, bound: float) -> np.ndarray:
    """First-improvement ascent of the worst value on the great circles
    through ``c`` and each of :func:`_tangents`, in stacked batches that
    start at ``ASCENT_BATCH`` and double after a batch without gain.  It
    stops within ``CG_GAP`` of ``bound``, an upper bound on the optimum,
    after a sweep that gains at most ``VALUE_ATOL``, or after ``ASCENT_SWEEPS``."""
    value, start = _worst_values(forms, c[np.newaxis])[0], -math.inf
    for _ in range(ASCENT_SWEEPS):
        if bound - value <= CG_GAP or value - start <= VALUE_ATOL:
            break
        start, tangents, size = value, _tangents(forms, c), ASCENT_BATCH
        while len(tangents) and bound - value > CG_GAP:
            batch = tangents[:size]
            # orthonormal (c, t') per tangent t; t' is arbitrary when t is parallel to c
            bases = np.linalg.qr(np.stack([np.tile(c, (len(batch), 1)), batch], axis=-1))[0]
            planes = np.swapaxes(bases, 1, 2)[:, np.newaxis] @ forms @ bases[:, np.newaxis]
            cands = (bases @ _best_on_circle(planes)[..., np.newaxis])[..., 0]
            cands /= np.sqrt(cands[:, np.newaxis] @ cands[..., np.newaxis])[:, 0]
            values = _worst_values(forms, cands)
            j = int((values > value).argmax())  # the first tangent that gains
            if values[j] <= value:
                tangents, size = tangents[size:], 2 * size
            else:
                c, value, tangents, size = cands[j], values[j], tangents[j + 1 :], ASCENT_BATCH
    return c


def solve_broadcast_single_direction(
    dtms, broadcast: BroadcastSolution | None = None
) -> SingleDirectionResult:
    """Max over unit directions (orthogonal to ``sqrt(P_X)``) of the worst
    receiver's squared image, ``max_{|c|=1} min_i c^T H_i c``.

    On a valid plane of dimension at most two the answer is exact: the
    best of :func:`_circle_directions`.  Beyond that the problem's
    semidefinite relaxation is the Gram program of :func:`solve_broadcast`
    (receiver counts 1 through 8).  The exact circle optimum on the span
    of its Gram matrix's top two eigenvectors (which holds the optimum
    when that matrix is rank one) starts :func:`_ascend`, a batched
    first-improvement search, and the relaxation's dual value bounds the
    distance to the optimum and ends the ascent within ``CG_GAP`` (at
    once when rank one).  A caller holding ``solve_broadcast(dtms)``
    already passes it as ``broadcast`` to skip solving it again.
    """
    _, q, forms = _plane_forms(dtms)
    if broadcast is not None and len(broadcast.system_values) != len(dtms):
        raise InputMismatchError("the broadcast solution is for a different receiver count")
    dim, bound = q.shape[1], None
    if dim == 1:
        us = np.ones((1, 1))
    elif dim == 2:
        us = _circle_directions(forms)
    else:
        sol = solve_broadcast(dtms) if broadcast is None else broadcast
        bound = sol.dual_value
        top = np.linalg.eigh(q.T @ sol.gram @ q)[1][:, -2:]
        start = top @ _best_on_circle((top.T @ forms @ top)[np.newaxis])[0]
        us = _ascend(forms, start, bound)[np.newaxis]
    values, psis = _worst_values(forms, us), us @ q.T
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    psis *= canonical_sign(psis.T)[:, np.newaxis]
    # symmetric receivers tie several directions; the lexicographically
    # largest psi, compared at 9 decimals so that roundoff cannot decide,
    # keeps the result independent of the receivers' order
    tied = np.nonzero(values >= values.max() - VALUE_ATOL)[0]
    j = max(tied, key=lambda j: tuple(np.round(psis[j], 9)))
    gap = 0.0 if bound is None else max(bound - float(values[j]), 0.0)
    return SingleDirectionResult(float(values[j]), psis[j], gap)


@dataclass(frozen=True, eq=False)
class DiagonalInstance:
    """A family of diagonal quadratic forms ``thetas[i]``, all of one
    non-zero length: the singular values of systems sharing one basis."""

    thetas: tuple

    def __post_init__(self):
        thetas = tuple(np.asarray(t, dtype=float) for t in self.thetas)
        if not thetas or thetas[0].size == 0:
            raise DimensionMismatchError("need at least one non-empty diagonal system")
        for t in thetas:
            if t.ndim != 1 or t.size != thetas[0].size:
                raise DimensionMismatchError("diagonal systems must share one length")
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise InfeasibleError("diagonal entries must be finite and non-negative")
            if np.any(t > math.sqrt(np.finfo(float).max)):
                raise InfeasibleError("diagonal entries must have finite squares")
        object.__setattr__(self, "thetas", tuple(_freeze(t) for t in thetas))


@record("c_star")
class DiagonalMaxMinResult:
    c_star: np.ndarray
    support: tuple
    value: float


def diagonal_maxmin(inst: DiagonalInstance, target_levels=None) -> DiagonalMaxMinResult:
    """Optimal unit vector for a family of commuting (diagonal) systems.

    On squared coordinates every quadratic form is linear, so both the
    max-min problem and the equality-constrained variant (fix the first
    systems at ``target_levels``, maximize the last) are linear programs
    over the simplex, solved on squares scaled to at most 1.  The
    variant's phase 1 raises :class:`InfeasibleError` when no unit vector
    attains the levels.  The optimum is a vertex, so its support has at
    most one entry per system.
    """
    squares = np.stack([t**2 for t in inst.thetas])
    k, m = squares.shape
    scale = float(np.max(squares)) or 1.0
    if target_levels is not None:
        levels = np.asarray(target_levels, dtype=float)
        if levels.size != k - 1:
            raise DimensionMismatchError(
                "need one target level per system except the last"
            )
        if not np.all(np.isfinite(levels)):
            raise InfeasibleError("target levels must be finite")
        s, _, _, _ = _simplex(
            np.vstack([squares[:-1] / scale, np.ones((1, m))]),
            np.append(levels.ravel() / scale, 1.0),
            -squares[-1] / scale,
        )
        s = np.maximum(s, 0.0)
        value = float(squares[-1] @ s)
        s /= s.sum()
    else:
        s = _maxmin_solve(*_maxmin_master(squares / scale))[0]
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
    output distribution at the operating point.  Columns are rescaled by
    :func:`~infocoupling.channel.unit_columns`.
    """
    joint = np.asarray(joint, dtype=float)
    k = joint.ndim - 1
    if k < 1 or len(input_dists) != k:
        raise DimensionMismatchError("one input distribution per transmitter required")
    joint = unit_columns(joint, "joint channel")
    channels = []
    for i in range(k):
        tmp = joint
        for j in range(k):
            if j != i:  # each earlier j is gone: j < i sits at axis 1, j > i after i's at 2
                tmp = np.tensordot(tmp, input_dists[j].probs, axes=([1 + (j > i)], [0]))
        channels.append(ChannelMatrix(tmp))
    py = channels[0].entries @ input_dists[0].probs
    return channels, Distribution(py)


def build_mac_dtms(joint: np.ndarray, input_dists) -> list[Dtm]:
    channels, _ = mac_marginal_channels(joint, input_dists)
    return [build_dtm(w, px) for w, px in zip(channels, input_dists)]


@record("stacked_vector", "block_orthogonality_residuals", "private_sigmas")
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


def _blocks(vector: np.ndarray, sizes) -> list[np.ndarray]:
    """``vector`` cut into consecutive blocks of the given sizes."""
    return np.split(vector, np.cumsum(sizes)[:-1])


def _common_pair(mats, dists):
    """Top singular value of ``[B_1 Q_1 ... B_k Q_k]`` and its right
    vector lifted to ``[Q_1 c_1; ...; Q_k c_k]``, where ``Q_i`` spans the
    valid plane of ``dists[i]``; signed like a spectrum's right vectors."""
    qs = [valid_plane_basis(p) for p in dists]
    stacked = np.hstack([m @ q for m, q in zip(mats, qs)])
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    if s.size == 0:
        return 0.0, np.zeros(sum(q.shape[0] for q in qs))
    psi = np.concatenate([q @ c for q, c in zip(qs, _blocks(vt[0], [q.shape[1] for q in qs]))])
    return float(s[0]), psi * canonical_sign(psi[:, np.newaxis])


def solve_mac_common(dtms) -> MacSolution:
    """Common-source coupling coefficient from the stacked coupling matrix.

    Raises :class:`DegenerateOutputError` when no private coefficient
    exceeds ``MAC_PRIVATE_FLOOR``: the common one is then at most
    ``sqrt(k)`` times that, and the gain would be 0/0."""
    _require_shared([d.output for d in dtms], "transmitters", "output")
    private = np.array([d.second_singular_value for d in dtms])
    if float(np.max(private)) <= MAC_PRIVATE_FLOOR:
        raise DegenerateOutputError(
            f"no private coupling coefficient exceeds {MAC_PRIVATE_FLOOR}; the gain is 0/0"
        )
    sigma_common, psi = _common_pair([d.matrix for d in dtms], [d.input for d in dtms])
    blocks = _blocks(psi, [d.input.alphabet_size for d in dtms])
    residuals = [float(b @ d.input.sqrt()) for b, d in zip(blocks, dtms)]
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
    _require_shared([d.output for d in dtms], "transmitters", "output")
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
    budget times the respective coupling coefficients.  A component that
    is negative or not finite raises :class:`InputMismatchError`.
    """
    lam = solve_broadcast([dtm1, dtm2]).value
    s1 = dtm1.second_singular_value**2
    s2 = dtm2.second_singular_value**2
    out = []
    for split in splits:
        try:
            e0, e1, e2 = (require_nonnegative(float(v), "split component") for v in split)
        except InvalidDistributionError as exc:
            raise InputMismatchError(str(exc)) from exc
        out.append((0.5 * e0 * lam, 0.5 * e1 * s1, 0.5 * e2 * s2))
    return out


def superposition_information(base: Distribution, families) -> float:
    """Exact input-side information of independently superposed families.

    ``families`` is a sequence of ``(u_law, directions, epsilon)``
    triples; each law must pass as a :class:`Distribution`, each direction
    set is unweighted (per-symbol deltas), one row per auxiliary value,
    zero-mean under its law.  The superposed conditional for a joint value adds
    every family's scaled direction to the base, and the mixture over all
    joint values is exactly the base, so the answer is the superposed
    family's mutual information against the base.
    """
    weights, points = np.ones(()), base.probs
    for law, dirs, eps in families:
        law, dirs = Distribution(law).probs, np.asarray(dirs, dtype=float)
        if dirs.shape != (law.size, base.alphabet_size):
            raise DimensionMismatchError("each family needs one direction per auxiliary value")
        weights = np.multiply.outer(weights, law)
        points = points[..., np.newaxis, :] + float(eps) * dirs
    weights, points = weights.ravel(), points.reshape(-1, base.alphabet_size)
    keep = weights > 0
    fam = ConditionalFamily(Distribution(weights[keep]), tuple(Distribution(p) for p in points[keep]))
    return mutual_information(fam, base)
