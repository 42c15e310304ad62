import pytest

from ridecloak.protocol import Params
from ridecloak.service import RideService, ServiceConfig
from support import ACCEPTANCE_LINES, SMALL_CONFIG, make_crypto_env, make_direct_env


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance results")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def knn64():
    """Width-64 key material for scheme-level tests."""
    return make_crypto_env(64, 101)


@pytest.fixture(scope="session")
def direct_env():
    """Keys plus summary parameters sized for fast direct-scheme tests."""
    return make_direct_env(Params(**SMALL_CONFIG), 1, 777, 202)


@pytest.fixture(scope="session")
def transfer_env():
    """Keys for the 2k+l cell encoding at k=6, l=4."""
    env = make_crypto_env(2 * SMALL_CONFIG["id_bits"] + SMALL_CONFIG["time_bits"], 303)
    env.id_bits = SMALL_CONFIG["id_bits"]
    env.time_bits = SMALL_CONFIG["time_bits"]
    # transfer offers need driver-oriented plus keys and rider-oriented minus keys
    env.plus = env.driver
    env.minus = env.rider
    return env


@pytest.fixture()
def small_service():
    """A fresh in-process service with fast small-width keys."""
    return RideService(ServiceConfig(**SMALL_CONFIG), seed=11)
