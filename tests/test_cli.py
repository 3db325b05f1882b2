"""CLI contract tests: golden outputs, exit codes, and determinism."""

import contextlib
import gc
import importlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carrychain.carries
import carrychain.cli as cli
import carrychain.simulate
import carrychain.spectral
import carrychain.tables as tables
from carrychain.carries import ChainSpec, transition_matrix
from carrychain.exactmath import ExactMatrix
from cases import GOLDEN, GOLDEN_CASES, chains, run_cli, run_python
from eulerian_identities import row_sums

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
        tables._emit_csv(fields, out)
    else:
        tables._emit_pretty(doc["command"], fields, out)
    return out.getvalue()


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


def test_python_m_keeps_output_and_exit_codes():
    proc = run_python("-m", "carrychain.cli",
                      *dict(GOLDEN_CASES)["verify.json"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, (GOLDEN / "verify.json").read_text(), "")
    proc = run_python("-m", "carrychain.cli", "find-system", "--p", "1/2",
                      "--n", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: p must be >= 1, got 1/2\n")


def test_internal_error_exits_three(monkeypatch, capsys):
    # Each patch trips one internal check, a RuntimeError: find_system's
    # self-check on p, and the oracle's and run_chain's carry guards, given
    # a carry interval or state space narrower than the proof.
    cases = [
        (carrychain.carries, "p_param", lambda spec: Fraction(0),
         ["find-system", "--p", "5/3", "--n", "4"],
         "constructed system has p=0, expected 5/3 (internal error)"),
        (carrychain.carries, "carry_interval", lambda base, digits, n: (0, 0),
         ["matrix", "--base", "3", "--digits=-1,0,4", "--n", "2"],
         "carry outside the proven interval [0, 0] (internal error)"),
        (carrychain.simulate, "state_space", lambda spec: range(0, 1),
         ["simulate", "--base", "3", "--d", "-1", "--n", "2",
          "--steps", "2000", "--seed", "1"],
         "carry -1 left the state space [0, 0] at step 11"),
    ]
    for module, name, patched, argv, msg in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, patched)
            assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", f"internal error: {msg}\n")
    _, _, _, argv, msg = cases[0]
    proc = run_python("-c", f"""if True:
        import runpy, sys
        import carrychain.carries
        carrychain.carries.p_param = lambda spec: 0
        sys.argv = ["carrychain", *{argv!r}]
        runpy.run_module("carrychain.cli", run_name="__main__")""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"internal error: {msg}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_render_errors_exit_three(fmt, error, monkeypatch, capsys):
    # The third scalar or cell the emitters format raises: main exits 3 with
    # one stderr line and no traceback, and stdout keeps the part of the
    # document already streamed. Exit 2 stays a refusal with empty stdout.
    argv = ["verify", "--base", "3", "--d", "-1", "--n", "2", "--format", fmt]
    assert cli.main(argv) == 0
    full = capsys.readouterr().out
    calls = []

    def fail_third(format_one):
        def patched(value):
            calls.append(value)
            if len(calls) == 3:
                raise error("emitter broke")
            return format_one(value)
        return patched

    monkeypatch.setattr(cli, "_scalar", fail_third(cli._scalar))
    monkeypatch.setattr(tables, "_cell", fail_third(tables._cell))
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "internal error: emitter broke\n"
    assert out and full.startswith(out) and out != full


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
        (["matrix", "--base", "1", "--digits=0,1", "--n", "2"],
         "base magnitude must be >= 2, got 1"),
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


SIM = "simulate --d -1 --seed 1 --steps"
# One case per row of cli.COST_LIMITS: (id, option, argv at the limit, argv
# one past it, the kernels the row keeps from running). The comments give the
# cold run times each limit was set from (Python 3.11, shared 2-vCPU VM).
GUARD_CASES = [
    # p 5/3: n-max 300 1.3 s with 28 MB of JSON; n-max 400 4.2 s.
    ("triangle", "--n-max", "triangle --p 5/3 --n-max 300",
     "triangle --p 5/3 --n-max 301", ["eulerian.triangle_recurrence"]),
    # n-max 300 at p 5/3, 7/4, 7/5: 1.0-1.1 s. Rows print integers below
    # K^n n! < 2^(900 + 2042), at most 886 digits.
    ("triangle-p-bits", "--n-max * bit length of --p",
     "triangle --p 7/4 --n-max 300", f"triangle --p 1/{2 ** 900} --n-max 1",
     ["eulerian.triangle_recurrence"]),
    # n 500: 2.3 s at p 3/2, 3.4 s at p 9/7; n 600 5.9 s.
    ("uniform-sum", "--n", "uniform-sum --p 3/2 --n 500",
     "uniform-sum --p 3/2 --n 501",
     ["uniformsum.interval_probs", "eulerian.stationary"]),
    # n 500 at p 9/7, 15/14: 2.4-2.6 s. Integers below 2^(2000 + 3768), at
    # most 1737 digits.
    ("uniform-sum-p-bits", "--n * bit length of --p",
     "uniform-sum --p 15/14 --n 500", f"uniform-sum --p {2 ** 2000} --n 1",
     ["uniformsum.interval_probs", "eulerian.stationary"]),
    # steps 2000000: 2.6 s at base 2, n 5; 3.2 s at base 16, n 10.
    ("simulate", "--steps", f"{SIM} 2000000 --base 3 --n 2",
     f"{SIM} 2000001 --base 3 --n 2",
     ["carries.chain_stationary", "simulate.run_chain"]),
    ("simulate-n", "--n", f"{SIM} 2000 --base 3 --n 200",
     f"{SIM} 2000 --base 3 --n 201",
     ["carries.chain_stationary", "simulate.run_chain"]),
    # The digit-sum table costs about (n * base)^2: 0.9-1.2 s at 3200 (base
    # 16, n 200; base 32, n 100).
    ("simulate-n-times-base", "--n * --base", f"{SIM} 2000 --base 3200 --n 1",
     f"{SIM} 2000 --base 3201 --n 1",
     ["carries.chain_stationary", "simulate.run_chain"]),
    # base 16, d -3: n 100 1.1-1.3 s (V@P grows as m^3); n 150 3.8 s.
    ("verify", "--n", "verify --base 16 --d -3 --n 100",
     "verify --base 16 --d -3 --n 101", ["spectral.verify_diagonalization"]),
    # n 100: 0.9 s at base 31; n * bits 600 (base 63) 1.3 s; base 100000
    # 3.7 s.
    ("verify-base-bits", "--n * bit length of --base",
     "verify --base 31 --d -3 --n 100", f"verify --base {2 ** 500} --d 0 --n 1",
     ["spectral.verify_diagonalization"]),
    # base 16, d -3: n 40 0.74 s (Berkowitz grows as m^4); n 60 7.4 s.
    ("matrix-char-poly", "--n with --char-poly",
     "matrix --base 16 --d -3 --n 40 --char-poly",
     "matrix --base 16 --d -3 --n 41 --char-poly",
     ["carries.transition_matrix", "exactmath.char_poly"]),
    # base 16, d -3: n 150 1.1 s with 8 MB of JSON; n 200 3.2 s.
    ("matrix", "--n", "matrix --base 16 --d -3 --n 150",
     "matrix --base 16 --d -3 --n 151", ["carries.transition_matrix"]),
    # n 40: 0.7-0.9 s at base 31; base 256 2.2 s.
    ("matrix-char-poly-base-bits",
     "--n * bit length of --base with --char-poly",
     "matrix --base 31 --d -3 --n 40 --char-poly",
     f"matrix --base {2 ** 200} --d 0 --n 1 --char-poly",
     ["carries.transition_matrix", "exactmath.char_poly"]),
    # n 150: 0.8-1.3 s at base 31; base 256 1.2 s with 17 MB; base 100000
    # 3.4 s.
    ("matrix-base-bits", "--n * bit length of --base",
     "matrix --base 31 --d -3 --n 150", f"matrix --base {2 ** 750} --d 0 --n 1",
     ["carries.transition_matrix"]),
    # A --d payload lists every digit: base 100000 0.6 s with 1.3 MB of
    # JSON; base 1000000 4.0 s.
    ("matrix-base", "--base", "matrix --base 100000 --d 0 --n 1",
     "matrix --base 100001 --d 0 --n 1", ["carries.transition_matrix"]),
    # Base 81, digits -40..40 or 0..80, n 40 (width 40-41): 2.7-3.1 s. Base
    # 3, digits -1,0,10: n 13 (width 76) 1.0 s; n 40 (width 225) over 200 s.
    ("matrix-char-poly-digits",
     "--digits carry interval width with --char-poly",
     "matrix --base 2 --digits=0,1 --n 40 --char-poly",
     "matrix --base 4 --negative --digits=-1,0,1,6 --n 17 --char-poly",
     ["carries.transition_matrix_bruteforce", "exactmath.char_poly"]),
    # Base 21, digits -10..10 or 0..20, n 150 (width 150-151): 1.5-1.7 s
    # with 9 MB of JSON.
    ("matrix-digits", "--digits carry interval width",
     "matrix --base 2 --digits=0,1 --n 150",
     "matrix --base 4 --negative --digits=-6,0,1,3 --n 50",
     ["carries.transition_matrix_bruteforce"]),
    # The digit-sum table has at most n * span + 1 sums. Base 41, digits
    # -20..20, n 80 (3200): 1.2 s. Past it: base -31, digits -15..15, n 148
    # (4440) 2.1-2.5 s; base 16384, digits 0,1,37,1000,5003,9999,12345, n 34
    # (419730) 5.5 s.
    ("matrix-digits-span", "--n * span of --digits",
     "matrix --base 3201 --digits=-1,0,3199 --n 1",
     "matrix --base 3202 --digits=-1,0,3200 --n 1",
     ["carries.transition_matrix_bruteforce"]),
    # The base (n - 1)K + 1 stays below 2^14000, at most 4215 digits.
    ("find-system-bits", "bit length of --n + bit length of --p",
     f"find-system --p {2 ** 7000 - 1} --n {2 ** 7000 - 1}",
     f"find-system --p {2 ** 7000 - 1} --n {2 ** 7000}",
     ["carries.find_system"]),
]


@pytest.mark.parametrize("option,at_limit,past_limit,kernels",
                         [case[1:] for case in GUARD_CASES],
                         ids=[case[0] for case in GUARD_CASES])
def test_cost_guards_refuse_before_any_work(option, at_limit, past_limit,
                                            kernels, capsys, monkeypatch):
    assert ({(cmd, opt) for cmd, opt, _, _ in cli.COST_LIMITS}
            == {(case[2].split()[0], case[1]) for case in GUARD_CASES})
    command = at_limit.split()[0]
    ((value, limit),) = [(value, limit)
                         for cmd, opt, value, limit in cli.COST_LIMITS
                         if (cmd, opt) == (command, option)]
    parse = cli.build_parser().parse_args
    assert value(parse(at_limit.split())) == limit
    assert value(parse(past_limit.split())) == limit + 1

    def reached(*args, **kwargs):
        raise RuntimeError("kernel reached")

    for kernel in kernels:
        module, name = kernel.split(".")
        monkeypatch.setattr(importlib.import_module(f"carrychain.{module}"),
                            name, reached)
    assert cli.main(past_limit.split()) == 2
    assert capsys.readouterr() == (
        "", f"error: {option} must be <= {limit} (cost limit), got {limit + 1}\n")
    # At the limit every row lets the request through to the (patched) kernel.
    assert cli.main(at_limit.split()) == 3
    assert capsys.readouterr() == ("", "internal error: kernel reached\n")


@pytest.mark.parametrize("base", ["100001", str(2 ** 750)])
def test_matrix_base_rows_hold_on_the_d_path_only(base, capsys):
    # With --digits the payload lists only the given digits and entries lie
    # over |D|^n, so a one-state request is cheap at any base.
    for flags in ([], ["--char-poly"]):
        code, out = run_cli(["matrix", "--base", base, "--digits=0,1", "--n",
                             "1", "--format", "json", *flags], capsys)
        assert code == 0
        assert json.loads(out)["payload"]["states"] == [0]


def _sized(small, far):
    """Mostly small admitted values; one draw in five far past the limits."""
    return st.integers(0, 4).flatmap(lambda k: far if k == 0 else small)


FUZZ_FAR = st.one_of(st.integers(10 ** 7, 10 ** 60),
                     st.integers(-10 ** 60, -10 ** 7))
FUZZ_N = _sized(st.integers(-1, 8), FUZZ_FAR)
FUZZ_BASE = _sized(st.integers(1, 9), FUZZ_FAR)
FUZZ_D = _sized(st.integers(-8, 0), FUZZ_FAR)
FUZZ_STEPS = _sized(st.integers(0, 3000), FUZZ_FAR)
FUZZ_P = _sized(
    st.builds("{}/{}".format, st.integers(-1, 30), st.integers(0, 9)),
    st.builds("{}/{}".format, st.integers(10 ** 59, 10 ** 60),
              st.integers(1, 10 ** 60)))
FUZZ_DIGITS = _sized(
    st.lists(st.integers(-4, 4), max_size=5),
    st.lists(st.integers(-10 ** 4, 10 ** 4), max_size=5).map(
        lambda xs: [0, *xs]))
FUZZ_SYSTEM = {"--base": FUZZ_BASE, "--d": FUZZ_D, "--n": FUZZ_N}
FUZZ_OPTIONS = {
    "triangle": {"--p": FUZZ_P, "--n-max": FUZZ_N},
    "matrix": {"--base": FUZZ_BASE, "--d": st.none() | FUZZ_D,
               "--digits": st.none() | FUZZ_DIGITS, "--n": FUZZ_N},
    "verify": FUZZ_SYSTEM,
    "find-system": {"--p": FUZZ_P, "--n": FUZZ_N},
    "simulate": {**FUZZ_SYSTEM, "--steps": FUZZ_STEPS,
                 "--seed": st.integers(-10 ** 60, 10 ** 60),
                 "--burn-in": st.none() | _sized(st.integers(-1, 200),
                                                 FUZZ_FAR)},
    "uniform-sum": {"--p": FUZZ_P, "--n": FUZZ_N},
}
FUZZ_FLAGS = {"matrix": ["--negative", "--char-poly"],
              "verify": ["--negative"], "simulate": ["--negative"]}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for option, values in FUZZ_OPTIONS[command].items():
        value = draw(values)
        if isinstance(value, list):
            argv.append(f"{option}=" + ",".join(map(str, value)))
        elif value is not None:
            argv.append(f"{option}={value}")
    argv += [flag for flag in FUZZ_FLAGS.get(command, []) if draw(st.booleans())]
    fmt = draw(st.sampled_from([None, "json", "csv", "pretty"]))
    return argv + ([f"--format={fmt}"] if fmt else [])


# The explicit examples, one per kind of path a cost limit closes, end in a
# traceback or run past the deadline when that limit is missing.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz_argv())
@example(["matrix", f"--base={10 ** 40}", "--d=0", "--n=2"])
@example(["matrix", "--base=3", "--digits=-1,0,10", "--n=20", "--char-poly"])
@example(["uniform-sum", f"--p={10 ** 60 + 1}/{10 ** 60}", "--n=72"])
@example(["find-system", f"--p={10 ** 4290}", f"--n={10 ** 20}"])
def test_argv_fuzz_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code, usage = exc.code, True
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 2 and not usage:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    if code in (0, 1):
        assert err.getvalue() == "", argv


def test_matrix_digits_carry_window_grows_with_n(capsys):
    # Carries of 40 binary summands reach 39, far past any fixed cap.
    code, out = run_cli(["matrix", "--base", "2", "--digits=0,1", "--n", "40",
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["states"] == list(range(40))
    closed = transition_matrix(ChainSpec(2, 0, 40))
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
    return cli._document(args, cli.dispatch(args)[0])


def _json_render_argvs():
    for s in chains(range(2, 8), range(1, 7)):
        system = ["--base", str(s.base_magnitude), "--d", str(s.d),
                  "--n", str(s.n), *(["--negative"] if s.negative else [])]
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
