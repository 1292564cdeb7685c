"""The package namespace: lazily re-exported public names.

The package's export table is the one declaration of the public names: a
source guard checks that no library module except ``cli``, which the
package does not re-export, assigns an ``__all__`` of its own.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import doublewell
from genspecs import child_env


@pytest.mark.parametrize("name", [n for n in doublewell.__all__ if n != "__version__"])
def test_name_is_its_submodule_object(name):
    obj = getattr(doublewell, name)
    # The export table is the one list of public names and where each lives.
    module = doublewell._SOURCE[name]
    assert obj.__module__ == f"doublewell.{module}"
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_parity_lives_in_params_and_stays_reachable_from_tunneling():
    from doublewell import params, tunneling

    assert doublewell._SOURCE["Parity"] == "params"
    assert tunneling.Parity is params.Parity is doublewell.Parity


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


SOURCES = sorted(Path(doublewell.__file__).parent.glob("*.py"))

# The package itself, and ``cli``, whose list names what it alone exports.
OWN_LISTS = {"__init__.py", "cli.py"}


def all_assignments(path: Path) -> list[str]:
    """``module:line`` of each binding of ``__all__`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    )
    return [f"{path.name}:{line}" for line in lines]


def test_no_submodule_repeats_the_export_table():
    assert {"__init__.py", "cli.py", "errors.py", "oracle.py"} <= {p.name for p in SOURCES}
    found = [hit for path in SOURCES if path.name not in OWN_LISTS for hit in all_assignments(path)]
    assert not found, "__all__ outside the package's export table: " + "; ".join(found)


def test_own_lists_are_still_assigned():
    assert all(all_assignments(path) for path in SOURCES if path.name in OWN_LISTS)


def test_guard_flags_every_binding_of_all(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "__all__ = ['f']\n"
        "__all__ += ['g']\n"
        "__all__: list = []\n"
        "x, __all__ = 1, []\n"
        "__all__.append('h')\n"
        "names = __all__\n"
        "for __all__ in []: pass\n",
        encoding="utf-8",
    )
    assert all_assignments(probe) == [
        "probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4", "probe.py:7",
    ]
