import ctypes
from pathlib import Path

import numpy as np
import pytest

from posecontest.config import RunConfig, build_scenario
from posecontest.dqn import DqnConfig


def _openblas_core():
    """The kernel OpenBLAS chose for this CPU, read from the library numpy's wheel
    bundles (the one already loaded), or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # Two training goldens' digests depend on the BLAS kernel that ran them, so name it.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}, "
        f"OpenBLAS core {_openblas_core()}"
    )


@pytest.fixture(scope="session")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def default_scenario(default_cfg):
    # Building the four 300-frame users and their loss tables is the slow
    # part; share one instance across the whole run.
    return build_scenario(default_cfg)


@pytest.fixture(scope="session")
def tiny_cfg():
    return RunConfig(
        users=3,
        native_rate=6,
        frame_count=12,
        budget=9,
        pool=12.0,
        profiles=("run", "wave", "stand"),
        search_step=3.0,
        dqn=DqnConfig(
            episodes=2,
            steps_per_episode=6,
            batch_size=4,
            buffer_capacity=32,
            hidden_sizes=(8,),
            target_sync=5,
        ),
    )


@pytest.fixture(scope="session")
def tiny_scenario(tiny_cfg):
    return build_scenario(tiny_cfg)
