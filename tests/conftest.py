import numpy as np
import pytest

from ctrlz import Condition, GaussianMixture, build_linear_schedule, subsample


@pytest.fixture(scope="session")
def sched50():
    return subsample(build_linear_schedule(1000, 1e-4, 0.02), 50)


@pytest.fixture(scope="session")
def two_mode_mix():
    return GaussianMixture(
        np.array([0.8, 0.2]),
        np.array([[-3.0, 0.0], [3.0, 0.0]]),
        np.array([0.7, 0.7]),
    )


@pytest.fixture(scope="session")
def balanced_cond():
    return Condition(np.array([0.5, 0.5]))
