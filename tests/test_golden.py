"""Golden corpus: the CLI and the wavefunction evaluators, byte for byte.

``tests/golden/corpus.json`` holds, for a fixed set of specs, the exit code
and exact stdout of every report subcommand (``solve``, ``solve --verbose``
with its stderr, ``perturb`` with each of its three flags, ``oracle``,
``paper-example``), the sha256 of both ``sample`` CSVs, and the float64
bytes of ``evaluate``, ``derivative``, ``probabilities`` and
``evaluate_single`` on a grid that includes every region edge and both of
its ``nextafter`` neighbours.  A refactor that changes one ulp of any of
these fails here.

Regenerate the corpus only when an output is meant to change:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from doublewell import (
    DoubleWellError,
    Parity,
    assemble,
    derivative,
    evaluate,
    evaluate_single,
    parse_spec,
    probabilities,
    single_well_model,
    solve_double_well,
)
from doublewell.cli import main
from genspecs import EXAMPLE_SPEC, mixed_spec_batch

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

MALFORMED = "hbar = 1.0\nnot a valid line\n"


def _spec_text(spec) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in asdict(spec).items())


def _specs() -> dict[str, str]:
    """Spec file text by name, in corpus order."""
    specs = {"example": _spec_text(EXAMPLE_SPEC)}
    for i, spec in enumerate(mixed_spec_batch(7, 9)):
        specs[f"mixed_{i}"] = _spec_text(spec)
    # Barrier a tenth of a well wide: the closed form does not apply (exit 3).
    specs["thin"] = _spec_text(replace(EXAMPLE_SPEC, w_0=EXAMPLE_SPEC.w_2 / 10.0))
    # Right floor and wall lowered by 1e-4: perturb refuses it (exit 4).
    specs["detuned"] = _spec_text(replace(EXAMPLE_SPEC, v_2=-1e-4, v_4=1.0 - 1e-4))
    specs["malformed"] = MALFORMED
    return specs


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(path: str) -> dict[str, list[str]]:
    return {
        "solve": ["solve", path],
        "solve_verbose": ["solve", path, "--verbose"],
        "perturb_v": ["perturb", path, "--v", "1.5"],
        "perturb_ratio": ["perturb", path, "--ratio", "3"],
        "perturb_delta_v": ["perturb", path, "--delta-v", "1e-12"],
        "oracle": ["oracle", path],
    }


def _hex(values) -> str:
    return np.asarray(values, dtype="<f8").tobytes().hex()


def _grid(edges, centers, lo, hi) -> np.ndarray:
    """Every edge and center with both float neighbours, a uniform grid over
    [lo, hi], and both infinities."""
    points = [-math.inf, math.inf]
    for x in (*edges, *centers):
        points += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return np.array(points + list(np.linspace(lo, hi, 16)))


def _fields(text: str) -> dict:
    """evaluate/derivative/probabilities/evaluate_single bytes of one spec."""
    spec = parse_spec(text)
    result = solve_double_well(spec)
    fields = {}
    for parity, level in ((Parity.GROUND, result.ground), (Parity.EXCITED, result.excited)):
        model = assemble(spec, result.reduced, level)
        xs = _grid(
            (model.x_m3, model.x_m1, model.x_1, model.x_3),
            (model.extremum_left, model.barrier_node, model.extremum_right),
            model.x_m3 - 5.0 / model.kappa_m4,
            model.x_3 + 5.0 / model.kappa_4,
        )
        fields[parity.value] = {
            "x": _hex(xs),
            "psi": _hex(evaluate(model, xs)),
            "dpsi": _hex(derivative(model, xs)),
            "probabilities": _hex(probabilities(model)),
        }
    for side in ("left", "right"):
        state = single_well_model(spec, result.reduced, side)
        xs = _grid(
            (state.x_outer, state.x_inner),
            (state.extremum,),
            spec.x_m3 - 5.0 / state.kappa_outer,
            spec.x_3 + 5.0 / state.kappa_outer,
        )
        fields[f"single_{side}"] = {"x": _hex(xs), "psi": _hex(evaluate_single(state, xs))}
    return fields


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _spec_record(name: str, text: str, workdir: Path) -> dict:
    path = workdir / f"{name}.spec"
    path.write_text(text)
    record = {}
    for label, argv in _commands(str(path)).items():
        code, out, err = _run(argv)
        record[label] = {"code": code, "stdout": out}
        if label == "solve_verbose":
            record[label]["stderr"] = err
    for state in ("ground", "excited"):
        csv = workdir / f"{name}.{state}.csv"
        code, _, _ = _run(
            ["sample", str(path), "--state", state, "--points", "501", "--out", str(csv)]
        )
        record[f"sample_{state}"] = {"code": code, "sha256": _sha256(csv)}
    try:
        record["fields"] = _fields(text)
    except DoubleWellError as exc:
        record["fields"] = {"error": type(exc).__name__}
    return record


def build_corpus(workdir: Path) -> dict:
    code, out, _ = _run(["paper-example"])
    corpus = {"paper_example": {"code": code, "stdout": out}, "specs": {}}
    for name, text in _specs().items():
        corpus["specs"][name] = _spec_record(name, text, workdir)
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_paper_example(corpus):
    code, out, _ = _run(["paper-example"])
    assert {"code": code, "stdout": out} == corpus["paper_example"]


def test_spec_list_matches_corpus(corpus):
    assert list(_specs()) == list(corpus["specs"])


@pytest.mark.parametrize("name", list(_specs()))
def test_spec_outputs(corpus, name, tmp_path):
    expected = corpus["specs"][name]
    got = _spec_record(name, _specs()[name], tmp_path)
    for key in expected:
        assert got[key] == expected[key], f"{name}: {key} differs from the golden corpus"


@pytest.mark.parametrize("name", ["example", "mixed_0", "mixed_2"])
def test_scalar_positions_match_the_array_path(corpus, name):
    """evaluate/derivative of one float return the same bits as the array."""
    spec = parse_spec(_specs()[name])
    result = solve_double_well(spec)
    for level in (result.ground, result.excited):
        model = assemble(spec, result.reduced, level)
        golden = corpus["specs"][name]["fields"][level.parity.value]
        xs = np.frombuffer(bytes.fromhex(golden["x"]), dtype="<f8")
        psi = [evaluate(model, float(x)) for x in xs]
        dpsi = [derivative(model, float(x)) for x in xs]
        assert _hex(psi) == golden["psi"]
        assert _hex(dpsi) == golden["dpsi"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus_data = build_corpus(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus_data, indent=1, sort_keys=False) + "\n")
    sys.stdout.write(f"wrote {CORPUS}\n")
