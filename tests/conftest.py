import os
import re
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


def rewrite(text: str, **values: str) -> str:
    """Config ``text`` with each ``key = value`` line set to the given value.

    Each key must name exactly one line. A rewrite that matched none would
    leave the config as it was, and the test built on it would pass without
    testing its case.
    """
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if count != 1:
            raise AssertionError(f"{count} lines of the config set {key!r}, not 1")
    return text


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
