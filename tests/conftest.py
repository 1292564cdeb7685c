import pytest

from doublewell import tunneling
from genspecs import EXAMPLE_SPEC


@pytest.fixture(autouse=True)
def _no_kept_wells_pass(monkeypatch):
    """Each test starts with no isolated-wells pass kept, as a new process
    does, so what a test counts does not depend on the tests before it."""
    monkeypatch.setattr(tunneling, "_last", (object(),))


@pytest.fixture
def example_spec():
    return EXAMPLE_SPEC
