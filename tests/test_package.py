"""Tests for the package's export list, import footprint and record types."""

from fractions import Fraction

import pytest

import carrychain
from carrychain.carries import ChainSpec
from carrychain.exactmath import ExactMatrix
from carrychain.simulate import SimConfig, SimResult
from carrychain.spectral import ChainReport, CheckResult
from cases import run_python


def test_export_list_resolves():
    assert carrychain.__all__ == [
        "ChainReport", "ChainSpec", "ExactMatrix", "ExactPolynomial",
        "SimConfig", "SimResult", "chain_spectrum", "chain_stationary",
        "char_poly", "determinant", "eigen_matrix", "find_system",
        "interval_prob", "irwin_hall_cdf", "p_param", "run_chain",
        "state_space", "stationary", "transition_matrix",
        "transition_matrix_bruteforce", "triangle_recurrence", "tv_distance",
        "v_closed", "verify_diagonalization",
    ]
    # Before the star import below loads them, dir() lists the lazy names too.
    assert set(carrychain.__all__) <= set(dir(carrychain))
    namespace: dict = {}
    exec("from carrychain import *", namespace)  # fails on any unresolved name
    assert set(carrychain.__all__) <= namespace.keys()


def _imported(*args: str, code: int = 0) -> set[str]:
    """Modules a fresh interpreter imports running args, which must exit with
    code, read off -X importtime."""
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == code, proc.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def test_cli_imports_only_what_a_command_needs():
    # Compared with a bare interpreter, since site may preload some modules.
    bare = _imported("-c", "pass")

    def package(modules):
        return {m for m in modules if m.startswith("carrychain.")}

    def request(*argv, code=0):
        # Under -m the cli module runs as __main__: a request that also
        # imports carrychain.cli would run cli.py twice.
        modules = _imported("-m", "carrychain.cli", *argv, code=code) - bare
        assert "carrychain.cli" not in modules, argv
        return modules

    front = "carrychain.commands"  # the handlers every accepted request runs
    cli = _imported("-c", "import carrychain.cli") - bare
    assert package(cli) == {"carrychain.cli"}
    assert not cli & {"dataclasses", "inspect", "json", "random", "typing"}
    triangle = request("triangle", "--p", "5/3", "--n-max", "3")
    assert package(triangle) == {front, "carrychain.eulerian"}
    uniform = request("uniform-sum", "--p", "5/3", "--n", "3")
    assert package(uniform) == {front, "carrychain.eulerian",
                                "carrychain.uniformsum"}
    find = request("find-system", "--p", "5/3", "--n", "4")
    assert package(find) == {front, "carrychain.carries",
                             "carrychain.eulerian"}
    digits = request("matrix", "--base", "3", "--digits=-1,0,4", "--n", "2")
    assert {front, "carrychain.carries"} <= digits
    assert not digits & {"carrychain.spectral", "carrychain.simulate",
                         "carrychain.uniformsum", "carrychain.tables"}
    simulate = request("simulate", "--base", "3", "--d", "-1", "--n", "2",
                       "--steps", "2000", "--seed", "1")
    assert {front, "carrychain.simulate"} <= simulate
    assert not simulate & {"carrychain.spectral", "carrychain.exactmath",
                           "carrychain.tables"}
    verify = request("verify", "--base", "3", "--d", "-1", "--n", "2")
    assert {front, "carrychain.spectral"} <= verify
    assert not verify & {"dataclasses", "inspect", "json", "typing",
                         "carrychain.simulate", "carrychain.tables"}
    # Only the csv and pretty writers load carrychain.tables.
    for fmt in ("csv", "pretty"):
        text = request("triangle", "--p", "5/3", "--n-max", "3",
                       "--format", fmt)
        assert package(text) == {front, "carrychain.eulerian",
                                 "carrychain.tables"}, fmt
    # A request the cost limits refuse runs no handler.
    refused = request("triangle", "--p", "5/3", "--n-max", "301", code=2)
    assert not package(refused)


def test_chain_stationary_keeps_its_old_addresses():
    from carrychain import carries, spectral

    assert (carrychain.chain_stationary is spectral.chain_stationary
            is carries.chain_stationary)


def _records():
    spec = ChainSpec(base_magnitude=5, d=-1, n=3)
    config = SimConfig(spec=spec, steps=2000, seed=7)
    report = ChainReport(spec=spec, states=[0, 1], p=Fraction(3, 2),
                         P=ExactMatrix([[1, 0], [0, 1]]), V=ExactMatrix([[1]]),
                         spectrum=[Fraction(1)], pi=[Fraction(1, 2)],
                         verdicts={})
    result = SimResult(config=config, counts={0: 3}, empirical={0: 0.5},
                       tv_distance=0.25)
    return [
        (spec, ChainSpec(5, -1, 3, False),
         "ChainSpec(base_magnitude=5, d=-1, n=3, negative=False)"),
        (CheckResult(passed=True), CheckResult(True, ""),
         "CheckResult(passed=True, detail='')"),
        (config, SimConfig(spec, 2000, 7, 1000),
         "SimConfig(spec=ChainSpec(base_magnitude=5, d=-1, n=3, "
         "negative=False), steps=2000, seed=7, burn_in=1000)"),
        # ExactMatrix keeps object's repr: no request prints one.
        (report, ChainReport(spec, [0, 1], Fraction(3, 2),
                             ExactMatrix([[1, 0], [0, 1]]), ExactMatrix([[1]]),
                             [Fraction(1)], [Fraction(1, 2)], {}),
         "ChainReport(spec=ChainSpec(base_magnitude=5, d=-1, n=3, "
         "negative=False), states=[0, 1], p=Fraction(3, 2), "
         f"P={report.P!r}, V={report.V!r}, "
         "spectrum=[Fraction(1, 1)], pi=[Fraction(1, 2)], verdicts={})"),
        (result, SimResult(config, {0: 3}, {0: 0.5}, 0.25,
                           "mt19937-digit-sum-bisect"),
         "SimResult(config=SimConfig(spec=ChainSpec(base_magnitude=5, d=-1, "
         "n=3, negative=False), steps=2000, seed=7, burn_in=1000), "
         "counts={0: 3}, empirical={0: 0.5}, tv_distance=0.25, "
         "generator='mt19937-digit-sum-bisect')"),
    ]


def test_record_types_keep_value_semantics():
    records = _records()
    assert len({type(r) for r, _, _ in records}) == 5
    for record, same, text in records:
        assert record == same and not record != same
        assert repr(record) == text
        field = text[text.index("(") + 1:text.index("=")]  # the first field
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        if isinstance(record, (ChainReport, SimResult)):
            with pytest.raises(TypeError):  # dict and list fields
                hash(record)
        else:
            assert hash(record) == hash(same)
    spec, check, config, report, result = (r for r, _, _ in records)
    assert spec.negative is False and spec.base == 5
    assert spec != ChainSpec(5, -1, 4) and spec.digits == [-1, 0, 1, 2, 3]
    assert check.detail == "" and config.burn_in == 1000
    assert report.verdicts == {} and report.verified
    assert result.generator == "mt19937-digit-sum-bisect"
    assert result.samples == 1000


@pytest.mark.parametrize("build,message", [
    # n = 0 in the first two: ChainSpec checks b, then the digits, then n.
    (lambda: ChainSpec(1, 0, 0), "base magnitude must be >= 2, got 1"),
    (lambda: ChainSpec(3, 1, 0), "digit set {1, ..., 3} must contain 0"),
    (lambda: ChainSpec(3, -3, 2), "digit set {-3, ..., -1} must contain 0"),
    (lambda: ChainSpec(3, -1, 0), "need at least one summand, got n=0"),
    (lambda: SimConfig(ChainSpec(3, -1, 2), 10, 1, burn_in=-1),
     "burn_in must be >= 0, got -1"),
    (lambda: SimConfig(ChainSpec(3, -1, 2), 10, 1, burn_in=10),
     "steps (10) must exceed burn_in (10)"),
    # _make, and _replace through it, build through __new__ as well.
    pytest.param(lambda: ChainSpec._make((1, 5, 0, False)),
                 "base magnitude must be >= 2, got 1", id="chain-make"),
    pytest.param(lambda: ChainSpec(3, -1, 2)._replace(d=1),
                 "digit set {1, ..., 3} must contain 0", id="chain-replace-d"),
    pytest.param(lambda: ChainSpec(3, -1, 2)._replace(n=0),
                 "need at least one summand, got n=0", id="chain-replace-n"),
    pytest.param(lambda: SimConfig._make((ChainSpec(3, -1, 2), 10, 1, -1)),
                 "burn_in must be >= 0, got -1", id="config-make"),
    pytest.param(lambda: SimConfig(ChainSpec(3, -1, 2), 2000, 1)._replace(
        steps=5), "steps (5) must exceed burn_in (1000)",
        id="config-replace-steps"),
])
def test_record_types_validate_with_the_same_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
