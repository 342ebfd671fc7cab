import collections
import math

import numpy as np
import pytest

from infocoupling import (
    BlockCodeConfig,
    Distribution,
    LayerPlan,
    greedy_layer,
    instances,
    plan_ternary_two_layer,
    simulate_layered,
    single_layer_plan,
)
from infocoupling.errors import (
    ConfigurationError,
    DegenerateLayerError,
    DimensionMismatchError,
    RegimeError,
)
from infocoupling.layered import SimulationReport, _plugin_information, _type_counts

ETA, GAMMA = 0.2, 0.1


@pytest.fixture
def channel():
    return instances.nested_ternary_channel(ETA, GAMMA)


@pytest.fixture
def plan():
    return plan_ternary_two_layer(ETA, GAMMA)


class TestGreedyLayer:
    def test_full_support_direction(self, channel):
        layer = greedy_layer(channel, instances.nested_ternary_operating_point(), 1.0)
        assert np.max(np.abs(layer.direction - [0.5, -0.25, -0.25])) <= 1e-9
        assert layer.sigma == pytest.approx(2 * ETA, abs=1e-12)

    def test_reduced_support_sigma(self, channel):
        layer = greedy_layer(channel, Distribution([0.0, 0.5, 0.5]), 1.0, support=(1, 2))
        assert layer.sigma == pytest.approx(math.sqrt(2 + 4 * ETA) * GAMMA, abs=1e-12)
        assert np.max(np.abs(layer.direction - [0.0, 0.5, -0.5])) <= 1e-12

    def test_binary_symmetric_restriction(self):
        # symmetric 2x2 restriction: direction proportional to (1/2, -1/2)
        w = instances.bsc(0.2)
        layer = greedy_layer(w, Distribution([0.5, 0.5]), 1.0)
        assert np.max(np.abs(layer.direction - [0.5, -0.5])) <= 1e-12

    def test_support_too_small(self, channel):
        with pytest.raises(DegenerateLayerError):
            greedy_layer(channel, Distribution([0.0, 1.0, 0.0]), 1.0, support=(1,))

    def test_mass_outside_support_rejected(self, channel):
        with pytest.raises(DegenerateLayerError):
            greedy_layer(
                channel, instances.nested_ternary_operating_point(), 1.0, support=(1, 2)
            )

    @pytest.mark.parametrize(
        "support",
        [(0, 7), (0.5, 1), (-1, 2), (1, 1, 2)],
        ids=["out_of_range", "not_integer", "negative", "repeated"],
    )
    def test_support_must_list_distinct_input_symbols(self, channel, support):
        with pytest.raises(DimensionMismatchError, match="distinct symbols of range"):
            greedy_layer(channel, instances.nested_ternary_operating_point(), 1.0, support=support)


class TestTernaryPlan:
    def test_total_rate_formula(self):
        plan = plan_ternary_two_layer(0.05, 0.02)
        formula = 2 * 0.05**2 + (0.5 + 0.05) * 0.02**2
        assert abs(plan.total_rate - formula) <= 1e-12
        assert plan.total_rate == pytest.approx(0.00522, abs=1e-12)

    def test_layer_rates(self, plan):
        assert plan.layers[0].rate == pytest.approx(2 * ETA**2, abs=1e-12)
        assert abs(plan.layers[0].rate - 0.5 * plan.layers[0].sigma**2) <= 1e-12
        assert abs(plan.layers[1].rate - 0.5 * plan.layers[1].sigma**2) <= 1e-12

    def test_vanishing_parameters(self):
        plan = plan_ternary_two_layer(1e-4, 0.5e-4)
        assert plan.total_rate <= 1e-7

    def test_replay_reaches_stated_boundary_points(self, plan):
        layer1 = plan.layers[0]
        plus = layer1.conditional(0)
        minus = layer1.conditional(1)
        assert np.max(np.abs(plus.probs - [1.0, 0.0, 0.0])) <= 1e-12
        assert np.max(np.abs(minus.probs - [0.0, 0.5, 0.5])) <= 1e-12
        assert plan.replay_residual() <= 1e-12
        layer2 = plan.layers[1]
        assert np.max(np.abs(layer2.conditional(0).probs - [0.0, 1.0, 0.0])) <= 1e-12
        assert np.max(np.abs(layer2.conditional(1).probs - [0.0, 0.0, 1.0])) <= 1e-12

    def test_rate_additivity_with_occupancy(self, plan):
        total = sum(l.rate * o for l, o in zip(plan.layers, plan.occupancies))
        assert abs(total - plan.total_rate) <= 1e-15
        assert plan.occupancies == (1.0, 0.5)

    def test_regime_violations(self):
        with pytest.raises(RegimeError):
            plan_ternary_two_layer(0.02, 0.05)
        with pytest.raises(RegimeError):
            plan_ternary_two_layer(0.3, 0.1)


class TestSimulation:
    def test_noiseless_channel_no_errors(self, plan):
        cfg = BlockCodeConfig(n1=40, k1=20, n2=5, k2=8, trials=20, seed=1)
        rep = simulate_layered(plan, instances.identity_channel(3), cfg)
        assert rep.per_layer_error_rate == (0.0, 0.0)

    def test_pilot_thresholds_at_shipped_seed(self, plan, channel):
        # pilot run with this exact seed recorded: (0.0, 0.1181)
        cfg = BlockCodeConfig(n1=400, k1=50, n2=50, k2=8, trials=200, seed=12345)
        rep = simulate_layered(plan, channel, cfg)
        assert rep.per_layer_error_rate[0] < 1e-2
        assert rep.per_layer_error_rate[1] < 0.13

    def test_error_rates_non_increasing_in_block_length(self, plan, channel):
        rates = []
        for n1 in (200, 400, 800):
            cfg = BlockCodeConfig(n1=n1, k1=50, n2=n1 // 8, k2=8, trials=100, seed=99)
            rep = simulate_layered(plan, channel, cfg)
            rates.append(rep.per_layer_error_rate)
        for l in range(2):
            assert rates[0][l] >= rates[1][l] >= rates[2][l]

    def test_information_estimates_near_quadratic_rule(self, channel):
        # eps = 0.05, 1e5 symbols per layer, shipped seed from the pilot run
        eps, seed = 0.05, 297
        cfg = BlockCodeConfig(n1=400, k1=250, trials=1, seed=seed)
        layer1 = greedy_layer(channel, instances.nested_ternary_operating_point(), eps)
        rep1 = simulate_layered(single_layer_plan(layer1), channel, cfg)
        target1 = 0.5 * eps**2 * (2 * ETA) ** 2
        assert rep1.per_layer_symbols[0] >= 10**5
        assert abs(rep1.per_layer_empirical_rate[0] - target1) <= 0.05 * target1

        layer2 = greedy_layer(channel, Distribution([0.0, 0.5, 0.5]), eps, support=(1, 2))
        rep2 = simulate_layered(single_layer_plan(layer2), channel, cfg)
        target2 = 0.5 * eps**2 * (2 + 4 * ETA) * GAMMA**2
        assert rep2.per_layer_symbols[0] >= 10**5
        assert abs(rep2.per_layer_empirical_rate[0] - target2) <= 0.05 * target2

    def test_reproducible_with_seed(self, plan, channel):
        cfg = BlockCodeConfig(n1=100, k1=20, n2=25, k2=4, trials=20, seed=7)
        a = simulate_layered(plan, channel, cfg)
        b = simulate_layered(plan, channel, cfg)
        assert a.per_layer_error_rate == b.per_layer_error_rate
        assert a.per_layer_empirical_rate == b.per_layer_empirical_rate

    def test_rounding_infeasible(self, channel):
        # a small-scale composition cannot be represented in two symbols
        layer = greedy_layer(channel, instances.nested_ternary_operating_point(), 0.05)
        cfg = BlockCodeConfig(n1=2, k1=4, trials=2, seed=0)
        with pytest.raises(ConfigurationError):
            simulate_layered(single_layer_plan(layer), channel, cfg)

    def test_block_structure_validation(self):
        with pytest.raises(ConfigurationError):
            BlockCodeConfig(n1=100, k1=10, n2=30, k2=4, trials=5, seed=0)


class TestPlanValidation:
    """Each ``ConfigurationError`` of ``LayerPlan``, from the layers of the
    ternary two-layer plan (layer two continues from bit 1 of layer one)."""

    def test_the_shipped_plan_replays(self, plan):
        again = LayerPlan(plan.layers, plan.occupancies, plan.branch_bits)
        assert again.replay_residual() == 0.0
        assert again.total_rate == plan.total_rate

    @pytest.mark.parametrize("count", [0, 3])
    def test_layer_count(self, plan, count):
        layers = (plan.layers * 2)[:count]
        with pytest.raises(ConfigurationError, match="one or two layers"):
            LayerPlan(layers, (1.0,) * count, (1,) * max(0, count - 1))

    def test_occupancies(self, plan):
        with pytest.raises(ConfigurationError, match="occupancy"):
            LayerPlan(plan.layers, (1.0,), (1,))

    def test_branch_bits(self, plan):
        with pytest.raises(ConfigurationError, match="branch bit"):
            LayerPlan(plan.layers, plan.occupancies, ())

    def test_replay_residual(self, plan):
        # bit 0 of layer one reaches the vertex [1, 0, 0], not layer two's edge point
        with pytest.raises(ConfigurationError, match="do not replay"):
            LayerPlan(plan.layers, plan.occupancies, (0,))


def _reference_simulation(plan, w, cfg):
    """The symbol-by-symbol simulation: one ``multinomial`` per input
    symbol of each sub-block, one decode per sub-block."""
    rng = np.random.default_rng(cfg.seed)
    wm = w.entries
    two = len(plan.layers) == 2

    def draw(comp):
        out = np.zeros(wm.shape[0], dtype=int)
        for x, c in enumerate(comp):
            if c:
                out += rng.multinomial(c, wm[:, x])
        return out

    def decode(counts, cands):
        with np.errstate(divide="ignore"):
            safe = np.where(counts > 0, np.log(cands), 0.0)
        scores = (counts * safe).sum(axis=1)
        return int(scores[1] > scores[0])

    layers, ns = plan.layers, (cfg.n1, cfg.n2)
    comps = [[_type_counts(l.conditional(b).probs, n) for b in (0, 1)] for l, n in zip(layers, ns)]
    cands = [np.stack([wm @ l.conditional(b).probs for b in (0, 1)]) for l in layers]
    errors, totals, symbols = [0, 0], [0, 0], [0, 0]
    joint = [np.zeros((2, w.output_size)), np.zeros((2, w.output_size))]
    for _ in range(cfg.trials):
        for bit1 in rng.integers(0, 2, cfg.k1):
            totals[0] += 1
            if two and bit1 == plan.branch_bits[0]:
                bits2 = rng.integers(0, 2, cfg.k2)
                inner = [draw(comps[1][b]) for b in bits2]
                counts = np.sum(inner, axis=0)
                for b, c in zip(bits2, inner):
                    joint[1][b] += c
                symbols[1] += cfg.n2 * cfg.k2
                totals[1] += cfg.k2
                if decode(counts, cands[0]) != bit1:
                    errors[0] += 1
                    errors[1] += cfg.k2
                else:
                    errors[1] += sum(decode(c, cands[1]) != b for b, c in zip(bits2, inner))
            else:
                counts = draw(comps[0][bit1])
                errors[0] += decode(counts, cands[0]) != bit1
            joint[0][bit1] += counts
            symbols[0] += cfg.n1
    n = len(layers)
    return SimulationReport(
        per_layer_error_rate=tuple(
            errors[l] / totals[l] if totals[l] else math.nan for l in range(n)
        ),
        per_layer_empirical_rate=tuple(_plugin_information(joint[l]) for l in range(n)),
        per_layer_bits=tuple(totals[:n]),
        per_layer_symbols=tuple(symbols[:n]),
        seed=cfg.seed,
    )


def _fields(rep):
    # NaN-safe: a layer that never ran reports NaN on both sides
    return (
        tuple(repr(float(r)) for r in rep.per_layer_error_rate),
        tuple(repr(float(r)) for r in rep.per_layer_empirical_rate),
        rep.per_layer_bits,
        rep.per_layer_symbols,
        rep.seed,
    )


def _plans():
    op = instances.nested_ternary_operating_point()
    channel = instances.nested_ternary_channel(ETA, GAMMA)
    return {
        "two-layer": plan_ternary_two_layer(ETA, GAMMA),
        "two-layer-small": plan_ternary_two_layer(0.05, 0.02),
        "single-full-scale": single_layer_plan(greedy_layer(channel, op, 1.0)),
        "single-edge": single_layer_plan(
            greedy_layer(channel, Distribution([0.0, 0.5, 0.5]), 0.5, support=(1, 2))
        ),
    }


BLOCK_SHAPES = [(40, 5, 5, 8), (40, 1, 5, 8), (40, 6, 40, 1), (24, 7, 8, 3), (16, 1, 16, 1)]


class TestBatchedDrawsMatchReference:
    @pytest.mark.parametrize("plan_name", sorted(_plans()))
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_reports_equal(self, plan_name, shape):
        plan = _plans()[plan_name]
        n1, k1, n2, k2 = shape
        for w in (instances.nested_ternary_channel(ETA, GAMMA), instances.identity_channel(3)):
            for trials, seed in [(1, 0), (2, 5), (3, 12345), (17, 7), (9, 1)]:
                cfg = BlockCodeConfig(n1=n1, k1=k1, n2=n2, k2=k2, trials=trials, seed=seed)
                got = simulate_layered(plan, w, cfg)
                assert _fields(got) == _fields(_reference_simulation(plan, w, cfg))

    def test_branchless_trial_reports_nan(self, plan, channel):
        # seed 1 draws bit 0 for the only sub-block, so layer two never runs
        cfg = BlockCodeConfig(n1=40, k1=1, n2=5, k2=8, trials=1, seed=1)
        rep = simulate_layered(plan, channel, cfg)
        assert rep.per_layer_bits == (1, 0)
        assert math.isnan(rep.per_layer_error_rate[1])
        assert _fields(rep) == _fields(_reference_simulation(plan, channel, cfg))

    def test_rounding_infeasible_matches(self, channel):
        layer = greedy_layer(channel, instances.nested_ternary_operating_point(), 0.05)
        cfg = BlockCodeConfig(n1=2, k1=4, trials=2, seed=0)
        messages = []
        for simulate in (simulate_layered, _reference_simulation):
            with pytest.raises(ConfigurationError) as info:
                simulate(single_layer_plan(layer), channel, cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "seed, error_rates, empirical_rates, bits, symbols",
        [
            (12345, (0.0, 0.11809007755020878), (0.08195852982405151, 0.014019540789316881),
             (10000, 40232), (4000000, 2011600)),
            (1, (0.0, 0.11490498812351543), (0.08243789589395319, 0.014230766261858128),
             (10000, 40416), (4000000, 2020800)),
            (7, (0.0, 0.11651249753985436), (0.08231111325194303, 0.014021184527879555),
             (10000, 40648), (4000000, 2032400)),
        ],
    )
    def test_golden_reports_at_cli_defaults(
        self, plan, channel, seed, error_rates, empirical_rates, bits, symbols
    ):
        # the CLI's default blocks; values recorded from the symbol-by-symbol draw
        cfg = BlockCodeConfig(n1=400, k1=50, n2=50, k2=8, trials=200, seed=seed)
        rep = simulate_layered(plan, channel, cfg)
        assert rep.per_layer_error_rate == error_rates
        assert rep.per_layer_empirical_rate == empirical_rates
        assert rep.per_layer_bits == bits
        assert rep.per_layer_symbols == symbols

    def test_one_integers_and_one_multinomial_call_per_branch_sub_block(
        self, plan, channel, monkeypatch
    ):
        calls = collections.Counter()
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls[name] += 1
                    return method(*args, **kwargs)

                return counted

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        cfg = BlockCodeConfig(n1=400, k1=50, n2=50, k2=8, trials=200, seed=12345)
        rep = simulate_layered(plan, channel, cfg)
        branch_sub_blocks = rep.per_layer_bits[1] // cfg.k2
        assert calls["integers"] == cfg.trials + branch_sub_blocks
        assert calls["multinomial"] <= cfg.trials + branch_sub_blocks
        assert set(calls) == {"integers", "multinomial"}
