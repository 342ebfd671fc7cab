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
Channel draws are batched over runs of sub-blocks in the symbol-by-symbol
order, so a seed gives the same reports as drawing each symbol alone.
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
from .prob import Distribution, is_count, record, require_nonnegative


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
    direction on the full alphabet.  ``epsilon`` must be finite and non-negative.
    """
    require_nonnegative(epsilon, "epsilon")
    if support is None:
        support = tuple(range(w.input_size))
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
            f"requires 0 < gamma < eta < 1/4, got eta={eta!r}, gamma={gamma!r}"
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
    ``trials`` are positive integers (numpy integers included).
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
            raise ConfigurationError(f"block sizes and trials must be positive integers, not {sizes!r}")
        if self.n2 is not None and self.n2 * self.k2 != self.n1:
            raise ConfigurationError("two-layer plans require n2 * k2 == n1")


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
    short = n - counts.sum()
    if short:
        remainders = target - counts
        for idx in np.argsort(-remainders)[:short]:
            counts[idx] += 1
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

    One ``multinomial`` call draws a run of sub-blocks symbol by symbol,
    in the order of one call per symbol, so seeded results are those of
    the symbol-by-symbol draw; each trial is then decoded at once.
    """
    if len(plan.layers) == 2 and cfg.n2 is None:
        raise ConfigurationError("two-layer plans need n2 and k2 in the config")
    rng = np.random.default_rng(cfg.seed)
    wm = w.entries
    ny = w.output_size

    def draw(table, bits):
        # (sub-blocks, n_x, n_y) draws in C order; a zero count draws nothing
        return rng.multinomial(table[bits], wm.T).sum(axis=1)

    layer1 = plan.layers[0]
    table1 = np.stack([_type_counts(layer1.conditional(b).probs, cfg.n1) for b in (0, 1)])
    cands1 = np.stack([wm @ layer1.conditional(b).probs for b in (0, 1)])

    two = len(plan.layers) == 2
    if two:
        layer2 = plan.layers[1]
        branch = plan.branch_bits[0]
        table2 = np.stack([_type_counts(layer2.conditional(b).probs, cfg.n2) for b in (0, 1)])
        cands2 = np.stack([wm @ layer2.conditional(b).probs for b in (0, 1)])

    errors = [0, 0]
    totals = [0, 0]
    joint = [np.zeros((2, ny)), np.zeros((2, ny))]

    for _ in range(cfg.trials):
        bits1 = rng.integers(0, 2, cfg.k1)
        counts = np.empty((cfg.k1, ny), dtype=int)
        parents = np.flatnonzero(bits1 == branch) if two else ()
        bits2, inner = [], []
        start = 0
        for i in parents:
            # a continuing sub-block's own output is the union of its
            # small sub-blocks
            if start < i:
                counts[start:i] = draw(table1, bits1[start:i])
            bits2.append(rng.integers(0, 2, cfg.k2))
            inner.append(draw(table2, bits2[-1]))
            counts[i] = inner[-1].sum(axis=0)
            start = i + 1
        if start < cfg.k1:
            counts[start:] = draw(table1, bits1[start:])

        wrong1 = _decode(counts, cands1) != bits1
        errors[0] += int(wrong1.sum())
        totals[0] += cfg.k1
        joint[0] += [counts[bits1 == b].sum(axis=0) for b in (0, 1)]
        if len(parents):
            bits2, inner = np.stack(bits2), np.stack(inner)
            wrong2 = _decode(inner, cands2) != bits2
            missed = wrong1[parents]
            # a missed parent loses every inner bit
            errors[1] += int(missed.sum()) * cfg.k2 + int(wrong2[~missed].sum())
            totals[1] += bits2.size
            joint[1] += [inner[bits2 == b].sum(axis=0) for b in (0, 1)]

    n_layers = 2 if two else 1
    return SimulationReport(
        per_layer_error_rate=tuple(
            errors[l] / totals[l] if totals[l] else math.nan for l in range(n_layers)
        ),
        per_layer_empirical_rate=tuple(
            _plugin_information(joint[l]) for l in range(n_layers)
        ),
        per_layer_bits=tuple(totals[:n_layers]),
        per_layer_symbols=tuple(n * t for n, t in zip((cfg.n1, cfg.n2), totals[:n_layers])),
        seed=cfg.seed,
    )
