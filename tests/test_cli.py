"""CLI contract tests: golden outputs, exit codes, and determinism."""

import gc
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import carrychain.carries
import carrychain.cli as cli
import carrychain.spectral
from carrychain.carries import ChainSpec, transition_matrix
from carrychain.exactmath import ExactMatrix
from carrychain.numeration import NumerationSystem
from eulerian_identities import row_sums

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("triangle.json",
     ["triangle", "--p", "2", "--n-max", "4", "--format", "json"]),
    ("matrix.json",
     ["matrix", "--base", "3", "--d", "-1", "--n", "2", "--format", "json"]),
    ("matrix_sparse.json",
     ["matrix", "--base", "3", "--digits=-1,0,4", "--n", "2",
      "--char-poly", "--format", "json"]),
    ("verify.json",
     ["verify", "--base", "5", "--d", "-1", "--n", "3", "--format", "json"]),
    ("verify_negative.json",
     ["verify", "--base", "3", "--d", "-1", "--n", "2", "--negative",
      "--format", "json"]),
    ("find_system.json",
     ["find-system", "--p", "5/3", "--n", "4", "--format", "json"]),
    ("uniform_sum.json",
     ["uniform-sum", "--p", "3", "--n", "3", "--format", "json"]),
    ("simulate.json",
     ["simulate", "--base", "3", "--d", "-1", "--n", "2", "--steps", "20000",
      "--seed", "42", "--format", "json"]),
]

# The same requests rendered as csv and pretty text, pinned byte for byte.
RENDER_CASES = [
    (fname.replace(".json", ext), argv[:-1] + [fmt])
    for fname, argv in GOLDEN_CASES
    for fmt, ext in (("csv", ".csv"), ("pretty", ".txt"))
]


def _jsonify(value):
    """Reference JSON tree: Fractions (and matrix entries) as num/den strings."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, ExactMatrix):
        return [[_jsonify(x) for x in row] for row in value.to_lists()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def reference_json(doc) -> str:
    return json.dumps(_jsonify(doc), indent=2) + "\n"


def rendered(doc, fmt: str = "json") -> str:
    out = io.StringIO()
    cli.render(doc, fmt, out)
    return out.getvalue()


def _reference_fields(payload):
    """Reference csv/pretty walk: matrices through to_lists(), every rational
    cell as str(Fraction)."""
    def cell(value):
        if isinstance(value, bool):
            return "pass" if value else "FAIL"
        return str(value)

    for key, value in payload.items():
        if isinstance(value, ExactMatrix):
            value = value.to_lists()
        if isinstance(value, list) and value and isinstance(value[0], list):
            yield key, "table", [[cell(x) for x in row] for row in value]
        elif isinstance(value, list):
            yield key, "line", [cell(x) for x in value]
        elif isinstance(value, dict):
            yield key, "mapping", [(k, cell(v)) for k, v in value.items()]
        else:
            yield key, "line", [cell(value)]


def reference_text(doc, fmt: str) -> str:
    out = io.StringIO()
    fields = _reference_fields(doc["payload"])
    if fmt == "csv":
        cli._emit_csv(fields, out)
    else:
        cli._emit_pretty(doc["command"], fields, out)
    return out.getvalue()


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES + RENDER_CASES,
                         ids=[f for f, _ in GOLDEN_CASES + RENDER_CASES])
def test_golden_output(fname, argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    expected = (GOLDEN / fname).read_text()
    assert out == expected


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES,
                         ids=[f for f, _ in GOLDEN_CASES])
def test_json_round_trips_byte_identical(fname, argv, capsys):
    _, out = run_cli(argv, capsys)
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_repeat_invocation_byte_identical(capsys):
    argv = ["simulate", "--base", "3", "--d", "-1", "--n", "2",
            "--steps", "5000", "--seed", "7", "--format", "json"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_verify_exit_zero_on_reference_systems(capsys):
    for argv in (
        ["verify", "--base", "5", "--d", "-1", "--n", "3"],
        ["verify", "--base", "11", "--d", "-3", "--n", "3"],
        ["verify", "--base", "3", "--d", "-1", "--n", "2", "--negative"],
    ):
        code, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0


def test_verify_corrupted_matrix_exits_one(monkeypatch, capsys):
    def swap_two_entries(rows):
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]

    def change_one_entry(rows):
        rows[1][1] += 1

    # A corrupted P or a corrupted V each break V P = D V.
    for name, edit in (("transition_matrix", swap_two_entries),
                       ("eigen_matrix", change_one_entry)):
        real = getattr(carrychain.spectral, name)

        def corrupted(*args, real=real, edit=edit, **kwargs):
            rows = real(*args, **kwargs).to_lists()
            edit(rows)
            return ExactMatrix(rows)

        monkeypatch.setattr(carrychain.spectral, name, corrupted)
        code, out = run_cli(
            ["verify", "--base", "3", "--d", "-1", "--n", "2", "--format", "json"],
            capsys)
        monkeypatch.undo()
        assert code == 1, name
        doc = json.loads(out)
        assert doc["payload"]["verified"] is False
        detail = doc["payload"]["diffs"]["eigenvector_equation"]
        assert detail.startswith("first mismatch at "), name
        assert " entries in " in detail, name


def python_m(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the carrychain package these tests import."""
    root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_python_m_keeps_output_and_exit_codes():
    proc = python_m("-m", "carrychain.cli", *dict(GOLDEN_CASES)["verify.json"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, (GOLDEN / "verify.json").read_text(), "")
    proc = python_m("-m", "carrychain.cli", "find-system", "--p", "1/2", "--n", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: p must be >= 1, got 1/2\n")


def test_internal_error_exits_three(monkeypatch, capsys):
    # A wrong p_param trips find_system's self-check, a RuntimeError.
    argv = ["find-system", "--p", "5/3", "--n", "4"]
    err = "internal error: constructed system has p=0, expected 5/3 (internal error)\n"
    monkeypatch.setattr(carrychain.carries, "p_param", lambda spec: Fraction(0))
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", err)
    proc = python_m("-c", f"""if True:
        import runpy, sys
        import carrychain.carries
        carrychain.carries.p_param = lambda spec: 0
        sys.argv = ["carrychain", *{argv!r}]
        runpy.run_module("carrychain.cli", run_name="__main__")""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_only_run_freezes_the_gc(monkeypatch, capsys):
    argv = ["verify", "--base", "3", "--d", "-1", "--n", "2"]
    before = gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["carrychain", *argv])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.count('"verified": true') == 2


@given(st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                 st.floats(allow_nan=True, allow_infinity=True)))
@example("plain ASCII text ~ /")
@example('say "q"')
@example("back\\slash")
@example("tab\t")
@example("DEL\x7f")
@example("caf\u00e9 \U0001d49e nl\n \x00 \x1f")
@example(float("nan"))
@example(float("-inf"))
@example(10 ** 40)
def test_scalar_fast_path_matches_json_dumps(value):
    assert cli._scalar(value) == json.dumps(value)


def test_usage_errors_exit_two(capsys):
    assert run_cli(["simulate", "--base", "3", "--d", "-1", "--n", "2",
                    "--steps", "0", "--seed", "1"], capsys)[0] == 2
    assert run_cli(["find-system", "--p", "2", "--n", "1"], capsys)[0] == 2
    for n in ("0", "-3"):
        assert cli.main(["find-system", "--p", "2", "--n", n]) == 2
        assert capsys.readouterr().err == f"error: need n >= 2, got n={n}\n"
    assert run_cli(["matrix", "--base", "3", "--n", "2"], capsys)[0] == 2
    assert run_cli(["triangle", "--p", "1/2", "--n-max", "2"], capsys)[0] == 2
    assert run_cli(["uniform-sum", "--p", "0", "--n", "-1"], capsys)[0] == 2
    assert run_cli(["uniform-sum", "--p", "2", "--n", "-1"], capsys)[0] == 2
    for n in ("-3", "0"):
        assert run_cli(["matrix", "--base", "2", "--digits=0,1", "--n", n],
                       capsys)[0] == 2
    bad_base = "base magnitude must be >= 2, got -3"
    for argv, err in (
        (["matrix", "--base", "-3", "--d", "-1", "--n", "2"], bad_base),
        (["matrix", "--base", "-3", "--digits=-1,0,4", "--n", "2"], bad_base),
        (["matrix", "--base", "-3", "--digits=-1,0,4", "--n", "2",
          "--negative"], bad_base),
        (["matrix", "--base", "3", "--d", "5", "--digits=0,1,2", "--n", "2"],
         "--d and --digits cannot be combined"),
        (["matrix", "--base", "3", "--digits=0,1", "--n", "2"],
         "no digit with residue 2 mod 3; digit set is incomplete"),
        (["triangle", "--p", "2", "--n-max", "-1"], "n_max must be >= 0, got -1"),
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {err}\n"), argv
    for argv in (["triangle", "--p", "two", "--n-max", "3"],
                 ["triangle", "--p", "1/0", "--n-max", "3"],
                 ["matrix", "--base", "3", "--digits=a,b", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv,option,limit,kernels", [
    (["triangle", "--p", "5/3", "--n-max"], "--n-max", cli.MAX_TRIANGLE_N_MAX,
     [("eulerian", "triangle_recurrence")]),
    (["uniform-sum", "--p", "3/2", "--n"], "--n", cli.MAX_UNIFORM_SUM_N,
     [("uniformsum", "interval_probs"), ("eulerian", "stationary")]),
    (["simulate", "--base", "3", "--d", "-1", "--n", "2", "--seed", "1",
      "--steps"], "--steps", cli.MAX_SIMULATE_STEPS,
     [("carries", "chain_stationary"), ("simulate", "run_chain")]),
    (["simulate", "--base", "3", "--d", "-1", "--seed", "1", "--steps", "2000",
      "--n"], "--n", cli.MAX_SIMULATE_N,
     [("carries", "chain_stationary"), ("simulate", "run_chain")]),
    (["simulate", "--d", "0", "--n", "1", "--seed", "1", "--steps", "2000",
      "--base"], "--n * --base", cli.MAX_SIMULATE_N_TIMES_BASE,
     [("carries", "chain_stationary"), ("simulate", "run_chain")]),
    (["verify", "--base", "16", "--d", "-3", "--n"], "--n", cli.MAX_VERIFY_N,
     [("spectral", "verify_diagonalization")]),
    (["matrix", "--base", "16", "--d", "-3", "--n"], "--n", cli.MAX_MATRIX_N,
     [("carries", "transition_matrix")]),
    (["matrix", "--base", "2", "--digits=0,1", "--n"], "--n",
     cli.MAX_MATRIX_N, [("carries", "transition_matrix_bruteforce")]),
    (["matrix", "--base", "16", "--d", "-3", "--char-poly", "--n"],
     "--n with --char-poly", cli.MAX_CHAR_POLY_N,
     [("carries", "transition_matrix"), ("exactmath", "char_poly")]),
], ids=["triangle", "uniform-sum", "simulate", "simulate-n",
        "simulate-n-times-base", "verify", "matrix", "matrix-digits",
        "matrix-char-poly"])
def test_cost_guards_refuse_before_any_work(argv, option, limit, kernels,
                                            capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise RuntimeError("kernel reached")

    for module, name in kernels:
        monkeypatch.setattr(importlib.import_module(f"carrychain.{module}"),
                            name, reached)
    assert cli.main(argv + [str(limit + 1)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {option} must be <= {limit} (cost limit), got {limit + 1}\n")
    # At the limit the guard lets the request through to the (patched) kernel.
    assert cli.main(argv + [str(limit)]) == 3
    assert capsys.readouterr() == ("", "internal error: kernel reached\n")


def test_matrix_digits_carry_window_grows_with_n(capsys):
    # Carries of 40 binary summands reach 39, far past any fixed cap.
    code, out = run_cli(["matrix", "--base", "2", "--digits=0,1", "--n", "40",
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["states"] == list(range(40))
    closed = transition_matrix(ChainSpec(NumerationSystem(2, 0), 40))
    assert payload["matrix"] == _jsonify(closed)


@pytest.mark.parametrize("p", ["2", "5/3", "17/7", "9/4"])
def test_triangle_row_sums_are_exact(p, capsys):
    code, out = run_cli(["triangle", "--p", p, "--n-max", "9"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    rows = [[Fraction(int(x["num"]), int(x["den"])) for x in row]
            for row in payload["rows"]]
    assert payload["row_sums"] == _jsonify([sum(row, Fraction(0))
                                            for row in rows])
    # Row n sums to p^n n!, the top row sum of the Eulerian array.
    assert payload["row_sums"] == _jsonify([row_sums(n, Fraction(p))[0]
                                            for n in range(10)])


def test_find_system_p_one(capsys):
    code, out = run_cli(
        ["find-system", "--p", "1", "--n", "5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["base"] == 5
    assert payload["verified_p"] == {"num": "1", "den": "1"}


def test_csv_and_pretty_render(capsys):
    code, out = run_cli(
        ["triangle", "--p", "5/3", "--n-max", "3", "--format", "csv"], capsys)
    assert code == 0
    assert "404/27" in out
    code, out = run_cli(
        ["matrix", "--base", "3", "--d", "-1", "--n", "2",
         "--format", "pretty"], capsys)
    assert code == 0
    assert "7/9" in out


def test_uniform_sum_reports_match(capsys):
    code, out = run_cli(
        ["uniform-sum", "--p", "2", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["match"] is True
    assert payload["interval_probs"][0] == {"num": "1", "den": "48"}


def _documents(argv):
    """The document main renders for argv."""
    args = cli.build_parser().parse_args(argv)
    return cli._document(args, args.func(args)[0])


def _json_render_argvs():
    for b in range(2, 8):
        for d in range(-(b - 1), 1):
            for n in range(1, 7):
                for neg in ([], ["--negative"]):
                    system = ["--base", str(b), "--d", str(d), "--n", str(n), *neg]
                    yield ["verify", *system]
                    yield ["matrix", *system, "--char-poly"]
    yield ["matrix", "--base", "3", "--digits=-1,0,4", "--n", "3", "--char-poly"]
    yield ["triangle", "--p", "5/3", "--n-max", "5"]
    yield ["find-system", "--p", "7/2", "--n", "3"]
    yield ["uniform-sum", "--p", "5/2", "--n", "4"]
    yield ["simulate", "--base", "5", "--d", "-2", "--n", "3", "--steps", "3000",
           "--seed", "3", "--negative"]


def test_json_emitter_matches_reference_on_commands():
    for argv in _json_render_argvs():
        doc = _documents(argv)
        assert rendered(doc) == reference_json(doc), argv


def test_csv_and_pretty_match_reference_on_commands():
    for argv in _json_render_argvs():
        doc = _documents(argv)
        for fmt in ("csv", "pretty"):
            assert rendered(doc, fmt) == reference_text(doc, fmt), (argv, fmt)


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("matrix", [
    ExactMatrix.from_int_rows([[6, -4, 0], [0, 0, 0]], [8, 5]),
    ExactMatrix([[1, -20, 300], [0, 7, -1]]),
    ExactMatrix([[Fraction(-1, 3), Fraction(-5, 6)], [Fraction(-10, 4), -3]]),
], ids=["unreduced", "integer-rows", "negative"])
def test_csv_and_pretty_match_reference_on_synthetic_matrices(matrix, fmt):
    doc = {"command": "synthetic",
           "payload": {"matrix": matrix, "p": Fraction(-7, 3),
                       "rows": matrix.to_lists(), "checks": {"ok": True}}}
    assert rendered(doc, fmt) == reference_text(doc, fmt)


def test_csv_and_pretty_reduce_matrix_entries():
    doc = {"command": "synthetic", "payload": {
        "matrix": ExactMatrix.from_int_rows([[6, -4, 0], [0, 0, 0]], [8, 5])}}
    assert rendered(doc, "csv") == "matrix\n3/4,-1/2,0\n0,0,0\n"
    assert rendered(doc, "pretty") == (
        "synthetic\nmatrix:\n  3/4  -1/2  0\n    0     0  0\n")


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {"e": []}}]},
    {"fractions": [Fraction(-7, 3), Fraction(5), Fraction(0), Fraction(-4)]},
    {"scalars": [True, False, None, 0, -12, 10 ** 30, 0.5, "x"]},
    {"ints": {1: "a", -2: [1]}, "other": {3.5: "b", True: "c", None: 0}},
    {"text": ["caf\u00e9 \u2264 \U0001d49e", "tab\tnl\n\"q\" \\ \x00\x1f\x7f"],
     "k\u00e9y\n": ("tuple", Fraction(1, 2))},
    {"matrix": ExactMatrix([[Fraction(1, 3), -2], [0, Fraction(-5, 6)]]),
     "nested": [{"m": ExactMatrix([[1]])}]},
], ids=["empty-dict", "empty-list", "nested-empties", "fractions", "scalars",
        "non-str-keys", "escapes", "matrices"])
def test_json_emitter_matches_reference_on_synthetic_docs(doc):
    assert rendered(doc) == reference_json(doc)
