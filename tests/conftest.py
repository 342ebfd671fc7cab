import numpy as np
import pytest

from infocoupling import build_dtm, instances

try:
    import hypothesis
except ImportError:  # the property modules skip themselves
    pass
else:
    # Tier-1 draws the same examples on every run; ``--hypothesis-profile=random``
    # keeps the random search (run by CI on the property modules).
    hypothesis.settings.register_profile("repeatable", derandomize=True)
    hypothesis.settings.register_profile("random", derandomize=False)
    hypothesis.settings.load_profile("repeatable")


@pytest.fixture
def ternary_channel():
    return instances.nested_ternary_channel(0.2, 0.1)


@pytest.fixture
def ternary_point():
    return instances.nested_ternary_operating_point()


@pytest.fixture
def ternary_dtm(ternary_channel, ternary_point):
    return build_dtm(ternary_channel, ternary_point)


@pytest.fixture
def windmill_dtms():
    px = instances.windmill_operating_point()
    return [build_dtm(w, px) for w in instances.windmill_channels(0.1)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
