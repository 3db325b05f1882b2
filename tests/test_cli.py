"""CLI contract tests: golden outputs, exit codes, and determinism."""

import io
import json
import pathlib
from fractions import Fraction

import pytest

import carrychain.cli as cli
import carrychain.spectral
from carrychain.carries import ChainSpec, transition_matrix
from carrychain.exactmath import ExactMatrix
from carrychain.numeration import NumerationSystem

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


def rendered_json(doc) -> str:
    out = io.StringIO()
    cli.render(doc, "json", out)
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
    real = carrychain.spectral.transition_matrix

    def corrupted(spec):
        rows = real(spec).to_lists()
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        return ExactMatrix(rows)

    monkeypatch.setattr(carrychain.spectral, "transition_matrix", corrupted)
    code, out = run_cli(
        ["verify", "--base", "3", "--d", "-1", "--n", "2", "--format", "json"],
        capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["payload"]["verified"] is False
    diffs = doc["payload"]["diffs"]
    assert any("mismatch" in d for d in diffs.values())


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


def test_matrix_digits_carry_window_grows_with_n(capsys):
    # Carries of 40 binary summands reach 39, far past any fixed cap.
    code, out = run_cli(["matrix", "--base", "2", "--digits=0,1", "--n", "40",
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["states"] == list(range(40))
    closed = transition_matrix(ChainSpec(NumerationSystem(2, 0), 40))
    assert payload["matrix"] == _jsonify(closed)


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
        assert rendered_json(doc) == reference_json(doc), argv


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
    assert rendered_json(doc) == reference_json(doc)
