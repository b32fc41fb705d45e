import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver guidance)."""
    from jschon_ray.runtime import session

    with session():
        yield
