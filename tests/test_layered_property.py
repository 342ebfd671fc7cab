"""Property test: the batched layered simulation reports exactly what the
symbol-by-symbol reference reports, or fails with the same error, on
arbitrary block shapes, trial counts and seeds."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from infocoupling import (  # noqa: E402
    BlockCodeConfig,
    instances,
    plan_ternary_two_layer,
    simulate_layered,
)
from infocoupling.errors import ConfigurationError  # noqa: E402
from test_layered import ETA, GAMMA, _fields, _reference_simulation  # noqa: E402

PLAN = plan_ternary_two_layer(ETA, GAMMA)
CHANNELS = (instances.nested_ternary_channel(ETA, GAMMA), instances.identity_channel(3))


def _outcome(simulate, w, cfg):
    try:
        return _fields(simulate(PLAN, w, cfg))
    except ConfigurationError as exc:
        return str(exc)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    n2=st.integers(1, 12),
    k2=st.integers(1, 6),
    k1=st.integers(1, 6),
    trials=st.integers(1, 17),
    seed=st.integers(0, 2**32 - 1),
    noiseless=st.booleans(),
)
def test_batched_matches_reference(n2, k2, k1, trials, seed, noiseless):
    cfg = BlockCodeConfig(n1=n2 * k2, k1=k1, n2=n2, k2=k2, trials=trials, seed=seed)
    w = CHANNELS[noiseless]
    assert _outcome(simulate_layered, w, cfg) == _outcome(_reference_simulation, w, cfg)
