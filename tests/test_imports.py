"""Source guard: no library module imports a name it never uses.

A leftover import keeps a dependency between modules after the code that
needed it is gone (an ``oracle`` that still imports ``reduce`` looks as
if it ran the closed form).  ``__init__`` is exempt, because it exports
names for the package namespace, and so is ``from __future__``, which
sets compiler flags rather than binding names.
"""

import ast
from pathlib import Path

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
