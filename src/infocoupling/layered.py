"""Layered coding by repeated local coupling at evolving operating points.

Each layer solves the local coupling problem at its own operating point
(possibly on a reduced input alphabet once the simplex boundary has been
reached), perturbs at full scale toward the simplex boundary, and hands
the reached distributions to the next layer.  For the nested ternary
channel with small parameters the two-layer plan reproduces the
channel's capacity expression ``2*eta^2 + (1/2 + eta)*gamma^2`` nats per
symbol.

The Monte Carlo simulator encodes layer bits as sub-block compositions
(largest-remainder type rounding), pushes every symbol through the
channel, and decodes each sub-block by minimum divergence between its
empirical output distribution and the candidate outputs, layer by layer.
A trial makes one ``integers`` call and at most one ``multinomial``, plus one
of each per sub-block that layer two continues, in the symbol-by-symbol
order: a seed gives the same reports as drawing each symbol alone.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelMatrix, build_dtm
from .errors import (
    ConfigurationError,
    DegenerateLayerError,
    DimensionMismatchError,
    RegimeError,
)
from .instances import nested_ternary_channel, nested_ternary_operating_point
from .prob import Distribution, is_count, plain, record, require_nonnegative


@record("direction")
class LayerRecord:
    """One layer of a plan: where it operates and how it perturbs.

    ``direction`` is the unweighted perturbation (per-symbol deltas) on
    the full alphabet, zero off the layer's support; the two conditionals
    are ``operating_point +- epsilon * direction``.  ``rate`` is
    ``epsilon^2 * sigma^2 / 2`` nats per symbol for the layer's reduced
    coupling matrix.
    """

    operating_point: Distribution
    direction: np.ndarray
    epsilon: float
    restricted_support: tuple
    sigma: float
    rate: float

    def conditional(self, bit: int) -> Distribution:
        sign = 1.0 if bit == 0 else -1.0
        return Distribution(
            np.clip(self.operating_point.probs + sign * self.epsilon * self.direction, 0.0, 1.0)
        )


def greedy_layer(
    w: ChannelMatrix,
    operating: Distribution,
    epsilon: float,
    support=None,
) -> LayerRecord:
    """Best coupling direction at an operating point, possibly restricted.

    The operating point must be strictly positive on ``support`` and
    carry no mass elsewhere; the channel is restricted to the support
    columns and the reduced coupling matrix built there.  Returns the
    second right singular vector translated back to an unweighted
    direction on the full alphabet.  ``epsilon`` must be finite and
    non-negative, ``support`` distinct input symbols (numpy integers included).
    """
    require_nonnegative(epsilon, "epsilon")
    support = tuple(range(w.input_size) if support is None else support)
    symbols = all(is_count(i, 0) and i < w.input_size for i in support)
    if not symbols or len(set(support)) < len(support):
        raise DimensionMismatchError(f"support {plain(support)!r} must be distinct symbols of range({w.input_size})")
    support = tuple(sorted(int(i) for i in support))
    if len(support) < 2:
        raise DegenerateLayerError("a layer needs at least two usable symbols")
    if operating.alphabet_size != w.input_size:
        raise DimensionMismatchError("operating point does not match the channel input")
    off = [i for i in range(w.input_size) if i not in support]
    if off and float(np.max(operating.probs[off])) > 1e-12:
        raise DegenerateLayerError("operating point carries mass outside the support")
    reduced_op = Distribution(operating.probs[list(support)])
    reduced_w = ChannelMatrix(w.entries[:, list(support)])
    dtm = build_dtm(reduced_w, reduced_op)
    sigma = dtm.second_singular_value
    v1 = dtm.right_vector(1)
    direction = np.zeros(w.input_size)
    direction[list(support)] = reduced_op.sqrt() * v1
    return LayerRecord(
        operating_point=operating,
        direction=direction,
        epsilon=float(epsilon),
        restricted_support=support,
        sigma=float(sigma),
        rate=0.5 * epsilon**2 * sigma**2,
    )


@record()
class LayerPlan:
    """An ordered stack of layers; ``total_rate`` weighs their rates by occupancy.

    ``occupancies[l]`` is the fraction of the symbol block layer ``l``
    modulates; ``branch_bits[l]`` records which bit of layer ``l-1`` the
    layer continues from (the replay constraint: its operating point must
    equal that conditional exactly).
    """

    layers: tuple
    occupancies: tuple
    branch_bits: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not 1 <= len(layers) <= 2:
            raise ConfigurationError("plans support one or two layers")
        if len(self.occupancies) != len(layers):
            raise ConfigurationError("one occupancy per layer required")
        if len(self.branch_bits) != max(0, len(layers) - 1):
            raise ConfigurationError("one branch bit per layer after the first")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "occupancies", tuple(float(o) for o in self.occupancies))
        object.__setattr__(self, "branch_bits", tuple(int(b) for b in self.branch_bits))
        err = self.replay_residual()
        if err > 1e-12:
            raise ConfigurationError(
                f"layer operating points do not replay (residual {err!r})"
            )

    @property
    def total_rate(self) -> float:
        return sum(l.rate * o for l, o in zip(self.layers, self.occupancies))

    def replay_residual(self) -> float:
        """Worst deviation between a layer's operating point and the
        conditional reached by the previous layer's stated branch."""
        worst = 0.0
        for l in range(1, len(self.layers)):
            reached = self.layers[l - 1].conditional(self.branch_bits[l - 1])
            worst = max(
                worst,
                float(np.max(np.abs(reached.probs - self.layers[l].operating_point.probs))),
            )
        return worst


def single_layer_plan(layer: LayerRecord) -> LayerPlan:
    return LayerPlan(layers=(layer,), occupancies=(1.0,), branch_bits=())


def plan_ternary_two_layer(eta: float, gamma: float) -> LayerPlan:
    """Two-layer full-scale plan for the nested ternary channel.

    Valid in the regime ``0 < gamma < eta < 1/4``.  Layer one perturbs
    the operating point ``[1/2, 1/4, 1/4]`` at full scale, reaching the
    vertex ``[1, 0, 0]`` on one branch and the edge point ``[0, 1/2,
    1/2]`` on the other; layer two continues on the reduced alphabet
    {2, 3} and reaches the remaining vertices.  The occupancy-weighted
    total rate is ``2*eta^2 + (1/2 + eta)*gamma^2`` nats per symbol.
    """
    if not 0 < gamma < eta < 0.25:
        raise RegimeError(
            f"requires 0 < gamma < eta < 1/4, got eta={plain(eta)!r}, gamma={plain(gamma)!r}"
        )
    w = nested_ternary_channel(eta, gamma)
    op1 = nested_ternary_operating_point()
    layer1 = greedy_layer(w, op1, 1.0)
    edge = layer1.conditional(1)
    layer2 = greedy_layer(w, edge, 1.0, support=(1, 2))
    return LayerPlan(layers=(layer1, layer2), occupancies=(1.0, 0.5), branch_bits=(1,))


@record()
class BlockCodeConfig:
    """Block sizes and trial budget for the layered simulation.

    ``n1`` symbols per layer-one sub-block, ``k1`` sub-blocks; when a
    second layer is simulated each continuing sub-block splits into
    ``k2`` sub-blocks of ``n2`` symbols with ``n2 * k2 == n1``.  Sizes and
    ``trials`` are positive integers and ``seed`` a non-negative one
    (numpy integers included).
    """

    n1: int
    k1: int
    n2: int | None = None
    k2: int | None = None
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if (self.n2 is None) != (self.k2 is None):
            raise ConfigurationError("n2 and k2 must be given together")
        sizes = (self.n1, self.k1, self.trials) + (() if self.n2 is None else (self.n2, self.k2))
        if not all(is_count(v, 1) for v in sizes):
            raise ConfigurationError(f"block sizes and trials must be positive integers, not {plain(sizes)!r}")
        if self.n2 is not None and self.n2 * self.k2 != self.n1:
            raise ConfigurationError("two-layer plans require n2 * k2 == n1")
        if not is_count(self.seed, 0):
            raise ConfigurationError(f"seed must be a non-negative integer, not {plain(self.seed)!r}")


@record()
class SimulationReport:
    """Bit error rates and plug-in information estimates per layer."""

    per_layer_error_rate: tuple
    per_layer_empirical_rate: tuple  # nats per symbol, bias-corrected plug-in
    per_layer_bits: tuple
    per_layer_symbols: tuple
    seed: int


def _type_counts(probs: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder rounding of ``n * probs`` to integer counts."""
    target = probs * n
    counts = np.floor(target).astype(int)
    counts[np.argsort(counts - target)[: n - counts.sum()]] += 1
    bad = (probs > 1e-12) & (counts == 0)
    if np.any(bad):
        raise ConfigurationError(
            f"sub-block length {n} too small to represent the composition"
        )
    return counts


def _decode(counts: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Maximum-likelihood type decoding of each row; ties resolve to bit 0."""
    with np.errstate(divide="ignore"):
        logq = np.log(candidates)
    counts = counts[..., np.newaxis, :]
    safe = np.where(counts > 0, logq, 0.0)
    scores = (counts * safe).sum(axis=-1)
    return scores[..., 1] > scores[..., 0]


def _plugin_information(joint_counts: np.ndarray) -> float:
    """Plug-in mutual information with the first-order bias correction
    subtracted (support-size based), in nats."""
    n = joint_counts.sum()
    if n == 0:
        return 0.0
    p = joint_counts / n
    pu = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / (pu * py)), 0.0)
    plugin = float(terms.sum())
    m_uy = int(np.count_nonzero(p))
    m_u = int(np.count_nonzero(pu))
    m_y = int(np.count_nonzero(py))
    return plugin - (m_uy - m_u - m_y + 1) / (2.0 * n)


def simulate_layered(plan: LayerPlan, w: ChannelMatrix, cfg: BlockCodeConfig) -> SimulationReport:
    """Monte Carlo run of the layered scheme over ``cfg.trials`` blocks.

    Layer bits are drawn uniformly; each sub-block is filled with the
    type-rounded composition of its conditional and its symbols pushed
    through the channel independently.  Decoding compares empirical
    output distributions against the candidate outputs (maximum
    likelihood on types), layer two only inside sub-blocks already
    decoded as its parent branch; a missed parent counts every dependent
    bit as an error.  Information estimates pair each layer's true bits
    with the outputs of the symbols that layer occupies.

    Per trial: ``integers(k1)``, one ``multinomial`` for the sub-blocks
    before the first branch sub-block (one that layer two continues), then
    per branch sub-block ``integers(k2)`` and one ``multinomial`` for its
    small sub-blocks and the sub-blocks up to the next branch.  Seeded
    results are those of drawing each symbol alone.
    """
    two = len(plan.layers) == 2
    if two and cfg.n2 is None:
        raise ConfigurationError("two-layer plans need n2 and k2 in the config")
    rng = np.random.default_rng(cfg.seed)
    wm = w.entries
    pvals = np.ascontiguousarray(wm.T)  # one contiguous copy, not one per multinomial call
    layers = list(zip(plan.layers, (cfg.n1, cfg.n2)))
    # rows 0-1: layer-one compositions by bit, rows 2-3: layer-two
    table = np.stack([_type_counts(l.conditional(b).probs, n) for l, n in layers for b in (0, 1)])
    cands = [np.stack([wm @ l.conditional(b).probs for b in (0, 1)]) for l, _ in layers]
    # a one-layer plan has no branch sub-blocks to split
    branch, k2 = (plan.branch_bits[0], cfg.k2) if two else (-1, 1)

    errors = [0] * len(layers)
    totals = [0] * len(layers)
    joint = [np.zeros((2, w.output_size)) for _ in layers]

    for _ in range(cfg.trials):
        bits1 = rng.integers(0, 2, cfg.k1)
        parents = np.flatnonzero(bits1 == branch)
        # stream order: each branch sub-block expands to its k2 small ones
        sizes = np.where(bits1 == branch, k2, 1)
        starts = np.cumsum(sizes) - sizes
        rows = np.repeat(bits1, sizes)
        cuts = [0, *starts[parents], rows.size]
        draws = [rng.multinomial(table[rows[: cuts[1]]], pvals)] if cuts[1] else []
        for a, b in zip(cuts[1:], cuts[2:]):
            rows[a : a + k2] = 2 + rng.integers(0, 2, k2)
            draws.append(rng.multinomial(table[rows[a:b]], pvals))
        # a zero count draws nothing; outputs summed over inputs
        out = np.concatenate(draws).sum(axis=1)
        # a branch sub-block's output is the union of its small sub-blocks
        counts = np.add.reduceat(out, starts)

        wrong1 = _decode(counts, cands[0]) != bits1
        errors[0] += int(wrong1.sum())
        totals[0] += cfg.k1
        joint[0] += [counts[bits1 == b].sum(axis=0) for b in (0, 1)]
        if len(parents):
            small = rows >= 2
            bits2 = (rows[small] - 2).reshape(-1, k2)
            inner = out[small].reshape(*bits2.shape, -1)
            wrong2 = _decode(inner, cands[1]) != bits2
            missed = wrong1[parents]
            # a missed parent loses every inner bit
            errors[1] += int(missed.sum()) * k2 + int(wrong2[~missed].sum())
            totals[1] += bits2.size
            joint[1] += [inner[bits2 == b].sum(axis=0) for b in (0, 1)]

    return SimulationReport(
        per_layer_error_rate=tuple(e / t if t else math.nan for e, t in zip(errors, totals)),
        per_layer_empirical_rate=tuple(_plugin_information(j) for j in joint),
        per_layer_bits=tuple(totals),
        per_layer_symbols=tuple(n * t for (_, n), t in zip(layers, totals)),
        seed=cfg.seed,
    )
