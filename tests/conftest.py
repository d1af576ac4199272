import os
from pathlib import Path

import numpy as np
import pytest

import chdp
from chdp.spectral import Grid


@pytest.fixture
def grid64():
    return Grid(64)


@pytest.fixture
def grid128():
    return Grid(128)


@pytest.fixture
def grid256():
    return Grid(256)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def child_env():
    """The environment of a fresh Python process that imports this checkout's chdp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(chdp.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env
