"""Source guards on the imports between the library's modules.

No library module imports a name it never uses: a leftover import keeps a
dependency between modules after the code that needed it is gone (an
``oracle`` that still imports ``reduce`` looks as if it ran the closed
form).  ``__init__`` is exempt, because it exports names for the package
namespace, and so is ``from __future__``, which sets compiler flags rather
than binding names.

The exact side stays independent of the closed form it checks: importing
``oracle`` or ``wavefunc`` loads only the spec layer (``params`` and
``errors``), and in ``oracle`` only ``compare``, which runs both sides,
names a closed-form module.  Neither they nor ``cli`` load ``threading``
or numpy at import.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from genspecs import child_env

import doublewell

SOURCES = sorted(
    p for p in Path(doublewell.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(path: Path) -> list[str]:
    """``module:line name`` of each name that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_sources_were_found():
    assert {"oracle.py", "params.py", "isolated.py"} <= {p.name for p in SOURCES}


def test_no_module_imports_a_name_it_never_uses():
    found = [hit for path in SOURCES for hit in unused_imports(path)]
    assert not found, "imported names that the module never uses: " + "; ".join(found)


def test_guard_flags_unused_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json\n"
        "from .params import band, reduce as _reduce\n"
        "def f(x: band) -> None:\n"
        "    import math\n"
        "    return json.dumps(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == [
        "probe.py:2 os",
        "probe.py:3 osp",
        "probe.py:5 _reduce",
        "probe.py:7 math",
    ]


# The package modules a fresh interpreter holds after importing each module.
SPEC_LAYER = {"doublewell", "doublewell.errors", "doublewell.params"}
LOADS = {
    "oracle": SPEC_LAYER | {"doublewell.oracle"},
    "wavefunc": SPEC_LAYER | {"doublewell.wavefunc"},
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_exact_side_imports_only_the_spec_layer(module):
    code = (
        f"import sys, doublewell.{module}\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'doublewell'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(LOADS[module])


# Loaded only where the array work runs: threading when a grid is split
# across CPUs, numpy for any array (concurrent.futures and logging never).
ARRAY_WORK = {"threading", "numpy", "concurrent", "logging"}


@pytest.mark.parametrize("module", ["cli", "oracle", "wavefunc"])
def test_import_loads_no_thread_or_array_module(module):
    # -S skips the site hooks, which load threading on some installs.
    code = f"import sys, doublewell.{module}\nprint(*sorted({sorted(ARRAY_WORK)} & sys.modules.keys()))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


CLOSED_FORM = {"isolated", "perturb", "tunneling", "wavefunc"}


def closed_form_names(path: Path, allowed: str = "compare") -> list[str]:
    """``module:line where name`` of each import or name of a closed-form
    module outside the top-level function ``allowed``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = getattr(top, "name", "module")
        if isinstance(top, ast.FunctionDef) and where == allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [part for a in node.names for part in a.name.split(".")]
                names += (getattr(node, "module", None) or "").split(".")
            else:
                continue
            found += [f"{path.name}:{node.lineno} {where} {n}" for n in names if n in CLOSED_FORM]
    return found


def test_only_compare_reaches_the_closed_form_from_the_oracle():
    found = closed_form_names(Path(doublewell.__file__).parent / "oracle.py")
    assert not found, "the oracle names a closed-form module outside compare: " + "; ".join(found)


def test_guard_flags_closed_form_names_outside_compare(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .tunneling import solve_r0\n"
        "import doublewell.isolated\n"
        "def compare(spec):\n"
        "    from . import tunneling, wavefunc\n"
        "    return tunneling.solve_double_well(spec), wavefunc\n"
        "def find_level(spec):\n"
        "    from . import perturb\n"
        "    return doublewell.isolated.solve_wells(perturb)\n",
        encoding="utf-8",
    )
    assert closed_form_names(probe) == [
        "probe.py:1 module tunneling",
        "probe.py:2 module isolated",
        "probe.py:7 find_level perturb",
        "probe.py:8 find_level perturb",
        "probe.py:8 find_level isolated",
    ]
