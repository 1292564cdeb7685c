"""Source guard: no call in the library compiles to CPython's slow generic call.

CPython 3.10-3.12 compile a call as ``f(*args, **kwargs)`` (the
``CALL_FUNCTION_EX`` opcode: the arguments are packed into a fresh tuple
and dict, then unpacked again) when it passes a ``**`` mapping, or when
its positional count plus twice its keyword count exceeds 30, so any call
with 16 or more keywords.  On Python 3.11 a plain function call costs
~0.2 us with 15 keywords and ~1.2 us with 16, and building the 17-field
``ReducedParams`` by keyword ~1.4 us against ~0.4 us positionally.

A second guard keeps the doublet's parity in one cached pair: each
``Parity.GROUND`` lookup goes through ``EnumType.__getattr__`` on Python
3.11 (~200 ns against ~35 ns for a module global), so library functions
compare against ``params``'s ``_GROUND``/``_EXCITED``, which no other
module rebinds.
"""

import ast
from pathlib import Path

import doublewell
from doublewell import Parity, params

SOURCES = sorted(Path(doublewell.__file__).parent.glob("*.py"))

# (module, enclosing function, callee) of the calls allowed to unpack a
# mapping: parse_spec runs once per spec file.
EXEMPT = {("params.py", "parse_spec", "WellSpec")}

# CPython's compiler switches to CALL_FUNCTION_EX above this many stack
# slots, counting a positional argument as one and a keyword as two.
STACK_USE_GUIDELINE = 30


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def slow_calls(path: Path) -> list[str]:
    """``module:line function -> callee (why)`` of each call in ``path`` that
    compiles to CALL_FUNCTION_EX through its keywords or a ``**`` mapping."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = _callee(child)
                mapping = any(k.arg is None for k in child.keywords)
                slots = len(child.args) + 2 * len(child.keywords)
                if mapping and (path.name, function, callee) not in EXEMPT:
                    why = "a ** mapping"
                elif slots > STACK_USE_GUIDELINE:
                    why = f"{len(child.keywords)} keywords"
                else:
                    why = None
                if why:
                    found.append(f"{path.name}:{child.lineno} {function} -> {callee} ({why})")
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_sources_were_found():
    assert {"params.py", "tunneling.py", "wavefunc.py"} <= {p.name for p in SOURCES}


def test_no_call_compiles_to_call_function_ex():
    found = [hit for path in SOURCES for hit in slow_calls(path)]
    assert not found, (
        "calls that CPython 3.10-3.12 compile to CALL_FUNCTION_EX (a ** mapping, "
        "or positional + 2 * keyword arguments > 30, so 16 or more keywords), "
        "which packs every argument into a fresh tuple and dict; pass them "
        "positionally instead: " + "; ".join(found)
    )


def test_guard_flags_keyword_heavy_and_mapping_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def hot(f, d):\n"
        f"    f({', '.join(f'k{i}=0' for i in range(16))})\n"
        f"    f(0, {', '.join(f'k{i}=0' for i in range(15))})\n"
        f"    f({', '.join(f'k{i}=0' for i in range(15))})\n"
        "    f(**d)\n",
        encoding="utf-8",
    )
    assert slow_calls(probe) == [
        "probe.py:2 hot -> f (16 keywords)",
        "probe.py:3 hot -> f (15 keywords)",
        "probe.py:5 hot -> f (a ** mapping)",
    ]


PAIR = {"_GROUND", "_EXCITED"}


def parity_reads(path: Path) -> list[str]:
    """``module:line what`` of each ``Parity.GROUND``/``Parity.EXCITED`` read
    inside a function, each module-level binding of ``_GROUND``/``_EXCITED``
    outside ``params.py``, and each use of the retired ``_PARITIES``."""
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if bound & PAIR and path.name != "params.py":
                found.append(f"{path.name}:{node.lineno} binds {', '.join(sorted(bound & PAIR))}")
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "Parity"
                and node.attr in ("GROUND", "EXCITED")
            ):
                found.append(f"{path.name}:{node.lineno} {func.name} reads Parity.{node.attr}")
    found += [
        f"{path.name}:{node.lineno} uses _PARITIES"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "_PARITIES"
    ]
    return sorted(set(found))


def test_parity_is_read_from_params_cached_pair():
    found = [hit for path in SOURCES for hit in parity_reads(path)]
    assert not found, (
        "library functions compare against params' module-level "
        "_GROUND/_EXCITED, bound there only: " + "; ".join(found)
    )
    assert (params._GROUND, params._EXCITED) == (Parity.GROUND, Parity.EXCITED)


def test_guard_flags_parity_lookups_and_copies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_GROUND, _EXCITED = Parity.GROUND, Parity.EXCITED\n"
        "_PARITIES = (_GROUND, _EXCITED)\n"
        "def hot(parity):\n"
        "    return parity == Parity.EXCITED or parity == _GROUND\n",
        encoding="utf-8",
    )
    assert parity_reads(probe) == [
        "probe.py:1 binds _EXCITED, _GROUND",
        "probe.py:2 uses _PARITIES",
        "probe.py:4 hot reads Parity.EXCITED",
    ]
