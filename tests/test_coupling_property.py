"""Property tests: every broadcast solution carries a valid certificate,
whatever dual points the column generation priced on the way, and every
single direction is either certified by it or admits no gaining step."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from infocoupling import (  # noqa: E402
    ChannelMatrix,
    Distribution,
    build_dtm,
    solve_broadcast,
    solve_broadcast_single_direction,
    valid_plane_basis,
)
from infocoupling.coupling import (  # noqa: E402
    CG_GAP,
    GAP_TOL,
    VALUE_ATOL,
    _best_on_circle,
    _plane_forms,
    _tangents,
    _worst_values,
)

weights = st.floats(min_value=0.02, max_value=1.0, allow_nan=False)


@st.composite
def family(draw, min_nx=2):
    nx = draw(st.integers(min_value=min_nx, max_value=6))
    point = np.array(draw(st.lists(weights, min_size=nx, max_size=nx)))
    channels = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        ny = draw(st.integers(min_value=2, max_value=5))
        cols = np.array(draw(st.lists(weights, min_size=nx * ny, max_size=nx * ny)))
        cols = cols.reshape(ny, nx)
        channels.append(ChannelMatrix(cols / cols.sum(axis=0)))
    return Distribution(point / point.sum()), channels


# one receiver: the eigenvalue and the Gram value agree to roundoff, and
# the eigenvalue comes out 5.6e-17 below
_COLS = np.array([[0.02, 0.021484375, 1.0], [1.0, 1.0, 1.0]])
ROUNDOFF_FAMILY = (
    Distribution(np.full(3, 1.0 / 3.0)),
    [ChannelMatrix(_COLS / _COLS.sum(axis=0))],
)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(family())
@hypothesis.example(ROUNDOFF_FAMILY)
def test_broadcast_certificate(fam):
    px, channels = fam
    dtms = [build_dtm(w, px) for w in channels]
    sol = solve_broadcast(dtms)
    w = sol.dual_weights
    assert np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12
    q = valid_plane_basis(px)
    weighted = q.T @ sum(wi * d.matrix.T @ d.matrix for wi, d in zip(w, dtms)) @ q
    lam = float(np.linalg.eigvalsh(0.5 * (weighted + weighted.T))[-1])
    assert abs(sol.dual_value - lam) <= 1e-12
    assert sol.value == float(np.min(sol.system_values))
    # both sides are floating-point sums, so the dual value may sit a
    # roundoff below the value, as in ROUNDOFF_FAMILY
    assert -1e-12 <= sol.dual_value - sol.value <= GAP_TOL


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(family(min_nx=4))
def test_single_direction_certified_or_stationary(fam):
    px, channels = fam
    dtms = [build_dtm(w, px) for w in channels]
    sol = solve_broadcast(dtms)
    sd = solve_broadcast_single_direction(dtms, sol)
    assert sd.value <= sol.dual_value + 1e-12
    assert sd.optimality_gap == max(sol.dual_value - sd.value, 0.0)
    if sd.optimality_gap <= CG_GAP:
        return
    # no great-circle search from psi along any tangent gains
    _, q, forms = _plane_forms(dtms)
    c = q.T @ sd.psi
    for t in _tangents(forms, c):
        basis = np.linalg.qr(np.stack([c, t], axis=1))[0]
        cand = basis @ _best_on_circle((basis.T @ forms @ basis)[np.newaxis])[0]
        cand /= np.linalg.norm(cand)
        assert _worst_values(forms, cand[np.newaxis])[0] - sd.value <= VALUE_ATOL
