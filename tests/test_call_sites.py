"""Source guard: no call in the library compiles to CPython's slow generic call.

CPython 3.10-3.12 compile a call as ``f(*args, **kwargs)`` (the
``CALL_FUNCTION_EX`` opcode: the arguments are packed into a fresh tuple
and dict, then unpacked again) when it passes a ``**`` mapping, or when
its positional count plus twice its keyword count exceeds 30, so any call
with 16 or more keywords.  On Python 3.11 a plain function call costs
~0.2 us with 15 keywords and ~1.2 us with 16, and building the 17-field
``ReducedParams`` by keyword ~1.4 us against ~0.4 us positionally.
"""

import ast
from pathlib import Path

import doublewell

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
