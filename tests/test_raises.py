"""Source guard: every error the library raises is a documented package error.

Each ``raise`` in ``src/doublewell`` must name a class from
``doublewell.errors`` (a ``DoubleWellError``), so every failure reaches the
CLI's exit-code table and the caller's ``except DoubleWellError``.  Four
raises are exempt: ``AttributeError`` in the package's module
``__getattr__``, which the attribute protocol requires; the bare re-raise
in ``cli.main``, which passes on what no exit-code rule matches; and
``FrozenInstanceError`` in ``WellSpec.__setattr__`` and ``__delattr__``,
which keep dataclasses' frozen contract and, as an ``AttributeError``
subclass, are what the attribute protocol requires of a refused assignment
or deletion.
"""

import ast
from pathlib import Path

import doublewell
from doublewell import errors

SOURCES = sorted(Path(doublewell.__file__).parent.glob("*.py"))

EXEMPT = {
    ("__init__.py", "__getattr__", "AttributeError"),
    ("cli.py", "main", None),
    ("params.py", "__setattr__", "FrozenInstanceError"),
    ("params.py", "__delattr__", "FrozenInstanceError"),
}


def raised_names(path: Path) -> list[tuple[int, str, str | None]]:
    """``(line, enclosing function, raised name)`` of each ``raise`` in
    ``path``; the name is None for a bare re-raise and the source text of
    anything that is not a plain or called name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    # ast.walk visits outer functions first, so inner ones claim their raises.
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if exc is None:
                name = None
            elif isinstance(exc, ast.Name):
                name = exc.id
            else:
                name = ast.unparse(exc)
            found.append((node.lineno, owner.get(node, "<module>"), name))
    return sorted(found, key=lambda hit: hit[0])


def is_package_error(name: str | None) -> bool:
    cls = getattr(errors, name, None) if name else None
    return isinstance(cls, type) and issubclass(cls, errors.DoubleWellError)


def undocumented_raises(path: Path) -> list[str]:
    """``module:line function name`` of each raise that is neither a package
    error nor exempt."""
    return [
        f"{path.name}:{line} {func} {name}"
        for line, func, name in raised_names(path)
        if not is_package_error(name) and (path.name, func, name) not in EXEMPT
    ]


def test_sources_were_found():
    assert {"__init__.py", "cli.py", "oracle.py", "params.py"} <= {p.name for p in SOURCES}


def test_every_raise_names_a_package_error():
    found = [hit for path in SOURCES for hit in undocumented_raises(path)]
    assert not found, "raises outside doublewell.errors: " + "; ".join(found)


def test_exemptions_are_still_in_use():
    used = {
        (path.name, func, name)
        for path in SOURCES
        for _, func, name in raised_names(path)
    }
    assert EXEMPT <= used


def test_guard_flags_foreign_and_bare_raises(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .errors import DomainError, InvalidSpec\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise DomainError('x')\n"
        "    raise ValueError('x')\n"
        "def g(x):\n"
        "    def inner():\n"
        "        raise ZeroDivisionError\n"
        "    try:\n"
        "        inner()\n"
        "    except InvalidSpec as exc:\n"
        "        raise exc\n"
        "    except OSError:\n"
        "        raise\n"
        "    raise InvalidSpec from None\n"
        "raise errors.DomainError('x')\n",
        encoding="utf-8",
    )
    assert undocumented_raises(probe) == [
        "probe.py:5 f ValueError",
        "probe.py:8 inner ZeroDivisionError",
        "probe.py:12 g exc",
        "probe.py:14 g None",
        "probe.py:16 <module> errors.DomainError",
    ]
