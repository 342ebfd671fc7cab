"""Property test: every channel or MAC spec, however malformed, maps to an
exit code in 0-4 under ``spectrum`` and ``couple --mode p2p|mac``, and no
exception escapes ``cli.main``."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from infocoupling.cli import main  # noqa: E402

entries = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2, max_value=2),
)
json_values = st.recursive(
    st.one_of(entries, st.none(), st.booleans(), st.text(alphabet="a1.", max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet="a1", max_size=2), inner, max_size=3),
    ),
    max_leaves=12,
)
# valid pieces mixed with arbitrary ones, so that specs also get past the
# parser and into the solvers' degenerate and constraint paths
vectors = st.one_of(
    st.sampled_from([[0.5, 0.5], [0.25, 0.75], [1.0], [0.25, 0.25, 0.5], [0.0, 1.0]]),
    st.lists(entries, max_size=4),
)
matrices = st.one_of(
    st.sampled_from(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0, 1.0]],
            [[0.5], [0.5]],
            [[1.0, 1.0], [0.0, 0.0]],
            [[0.9, 0.1, 0.5], [0.1, 0.9, 0.5]],
            [[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]],
        ]
    ),
    st.lists(st.lists(entries, max_size=4), max_size=4),
)
joints = st.one_of(
    st.sampled_from(
        [
            [1, 0, 0, 1, 0, 1, 1, 0],
            [1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
            [1, 0, 0, 1],
            [0.5, 0.5, 0.5, 0.5],
            [0.25, 0.5, 0.75, 0.5],
        ]
    ),
    st.lists(entries, max_size=16),
)
channel_specs = st.fixed_dictionaries(
    {"input_dist": st.one_of(vectors, json_values)},
    optional={
        "name": json_values,
        "channel": st.one_of(matrices, json_values),
        "channels": st.one_of(st.lists(matrices, max_size=3), json_values),
    },
)
mac_specs = st.fixed_dictionaries(
    {},
    optional={
        "transmitters": st.one_of(
            st.lists(st.fixed_dictionaries({"input_dist": vectors}), max_size=3),
            json_values,
        ),
        "joint_channel": st.one_of(joints, json_values),
    },
)
COMMANDS = (["spectrum"], ["couple", "--mode", "p2p"], ["couple", "--mode", "mac"])


@hypothesis.settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(spec=st.one_of(channel_specs, mac_specs, json_values))
@hypothesis.example(spec={"input_dist": [0.5, 0.5], "channels": 1})
@hypothesis.example(spec={"transmitters": [{"input_dist": [0.25] * 4}] * 30, "joint_channel": []})
@hypothesis.example(spec={"transmitters": [{"input_dist": [0.5, 0.5]}] * 64, "joint_channel": [1]})
def test_exit_code_contract(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:], "--output", str(tmp_path / "out.json")]
        assert main(argv) in range(5), (argv, spec)
