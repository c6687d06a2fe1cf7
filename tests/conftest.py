import pytest

from crosshedge import ModelParams, State
from crosshedge.config import PRESETS, _build_exposure


def _preset_model(name):
    return ModelParams(**PRESETS[name]["model"])


@pytest.fixture(scope="session")
def fig1():
    return _preset_model("fig1_right")


@pytest.fixture(scope="session")
def fig1_left():
    return _preset_model("fig1_left")


@pytest.fixture(scope="session")
def fig3():
    return _preset_model("fig3")


@pytest.fixture(scope="session")
def fig5():
    return _preset_model("fig5")


@pytest.fixture(scope="session")
def fig7():
    return _preset_model("fig7")


@pytest.fixture(scope="session")
def call100():
    return _build_exposure(PRESETS["fig7"]["exposure"])


@pytest.fixture(scope="session")
def origin_state():
    return State(t=0.0, x=0.0, q=0.0, s=10.0, u=1.0)
