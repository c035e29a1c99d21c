import os
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

TESTS_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # a numpy RuntimeWarning (overflow, invalid value) escaping the
    # package fails the test that let it out
    for item in items:
        if item.path.is_relative_to(TESTS_DIR):
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
