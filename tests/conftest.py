import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "mlscore",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# about 10x the examples, for the loader and margin kernel oracles in CI:
# pytest --hypothesis-profile ci loads it after this file's load_profile
settings.register_profile("ci", settings.get_profile("mlscore"), max_examples=600)
settings.load_profile("mlscore")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
