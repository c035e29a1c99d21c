import os
import sys

from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
