"""Property tests: the exact broadcast oracle and the column-generation
solver agree on arbitrary 3-symbol operating points and 1-8 receivers, and
the kernel-grid search equals its weight-by-weight loop bit for bit."""

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
    s_ratio_search,
    solve_broadcast,
)
from test_oracles import _reference_s_ratio  # noqa: E402

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


@st.composite
def kernel_search_case(draw):
    """A 2- or 3-symbol operating point and a channel that may have zero
    entries (a column that comes out all zero is made uniform)."""
    n = draw(st.integers(min_value=2, max_value=3))
    ny = draw(st.integers(min_value=1, max_value=4))
    entries = st.one_of(st.just(0.0), weights)
    cols = np.array(draw(st.lists(entries, min_size=n * ny, max_size=n * ny))).reshape(ny, n)
    cols[:, cols.sum(axis=0) == 0] = 1.0
    point = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    resolution = draw(st.integers(min_value=8, max_value=40))
    return ChannelMatrix(cols / cols.sum(axis=0)), Distribution(point / point.sum()), resolution


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(case=kernel_search_case())
def test_kernel_search_matches_loop(case):
    w, px, resolution = case
    got = s_ratio_search(w, px, SearchBudget(grid_resolution=resolution))
    assert (got.lower_bound, got.nonlocal_best, got.local_best) == _reference_s_ratio(w, px, resolution)
