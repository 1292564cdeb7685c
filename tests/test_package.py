"""The package namespace: lazily re-exported public names."""

import subprocess
import sys

import pytest

import doublewell
from genspecs import child_env


@pytest.mark.parametrize("name", [n for n in doublewell.__all__ if n != "__version__"])
def test_name_is_its_submodule_object(name):
    obj = getattr(doublewell, name)
    module = obj.__module__
    assert module.startswith("doublewell.")
    assert getattr(sys.modules[module], name) is obj
    # The package's export table repeats each submodule's list by hand.
    assert name in sys.modules[module].__all__


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, doublewell; "
            "print(sorted(m for m in sys.modules if m.startswith('doublewell.')))",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from doublewell import *", namespace)
    assert set(doublewell.__all__) <= set(namespace)
    assert namespace["__version__"] == doublewell.__version__


def test_dir_lists_every_name():
    assert set(doublewell.__all__) <= set(dir(doublewell))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'doublewell' has no attribute 'no_such_name'"):
        doublewell.no_such_name
