"""Property test: the exact broadcast oracle and the column-generation
solver agree on arbitrary 3-symbol operating points and 1-8 receivers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from infocoupling import (  # noqa: E402
    ChannelMatrix,
    Distribution,
    SearchBudget,
    brute_broadcast,
    build_dtm,
    solve_broadcast,
)

weights = st.floats(min_value=0.02, max_value=1.0, allow_nan=False)


@st.composite
def channel(draw):
    ny = draw(st.integers(min_value=2, max_value=4))
    cols = np.array(draw(st.lists(weights, min_size=3 * ny, max_size=3 * ny))).reshape(ny, 3)
    return ChannelMatrix(cols / cols.sum(axis=0))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    point=st.lists(weights, min_size=3, max_size=3),
    channels=st.lists(channel(), min_size=1, max_size=8),
)
def test_oracle_agrees_with_solver(point, channels):
    px = Distribution(np.array(point) / sum(point))
    dtms = [build_dtm(w, px) for w in channels]
    est = brute_broadcast(dtms, SearchBudget(grid_resolution=8)).lambda_estimate
    assert abs(est - solve_broadcast(dtms).value) <= 1e-8
