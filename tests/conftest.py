import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# pyproject.toml puts src/ on this process's path; the tests that run
# ``python -m qpmspdc.cli`` in a child process need it there too, so that a
# checkout runs its suite without an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def ktp():
    from qpmspdc.dispersion import KtpIndexModel

    return KtpIndexModel()


@pytest.fixture(scope="session")
def preset1():
    from qpmspdc.config import load_scenario

    return load_scenario("paper-config-1")


@pytest.fixture(scope="session")
def preset2():
    from qpmspdc.config import load_scenario

    return load_scenario("paper-config-2")


@pytest.fixture(scope="session")
def preset1_both(preset1):
    from qpmspdc.scenarios import run_coincidence

    return run_coincidence(preset1, method="both")


@pytest.fixture(scope="session")
def preset2_both(preset2):
    from qpmspdc.scenarios import run_coincidence

    return run_coincidence(preset2, method="both")
