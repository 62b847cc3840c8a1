import pytest
from hypothesis import settings

from telematch import protocol

# Example times drift by tens of percent with the host's load, so no
# example has a deadline; each test keeps its own max_examples.
settings.register_profile("telematch", deadline=None)
settings.load_profile("telematch")


@pytest.fixture(autouse=True)
def _fresh_report_points():
    """Start each test with an empty point memo, so that no test reads a point
    an earlier one resolved (perhaps through a patched helper)."""
    protocol._report_points.cache_clear()
