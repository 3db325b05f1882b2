"""Tests for the package's export list, import footprint and record types."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import carrychain
from carrychain.carries import ChainSpec, NumerationSystem, StateSpace
from carrychain.exactmath import ExactMatrix
from carrychain.simulate import SimConfig, SimResult
from carrychain.spectral import ChainReport, CheckResult

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_export_list_resolves():
    assert carrychain.__all__ == [
        "ChainReport", "ChainSpec", "ExactMatrix", "ExactPolynomial",
        "NumerationSystem", "SimConfig", "SimResult", "StateSpace",
        "chain_spectrum", "chain_stationary", "char_poly", "commutes",
        "determinant", "eigen_matrix", "find_system", "interval_prob",
        "irwin_hall_cdf", "p_param", "run_chain", "state_space", "stationary",
        "transition_matrix", "transition_matrix_bruteforce",
        "triangle_recurrence", "tv_distance", "v_closed",
        "verify_diagonalization",
    ]
    # Before the star import below loads them, dir() lists the lazy names too.
    assert set(carrychain.__all__) <= set(dir(carrychain))
    namespace: dict = {}
    exec("from carrychain import *", namespace)  # fails on any unresolved name
    assert set(carrychain.__all__) <= namespace.keys()


def _imported(*args: str) -> set[str]:
    """Modules a fresh interpreter imports running args, read off -X importtime."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def test_cli_imports_only_what_a_command_needs():
    # Compared with a bare interpreter, since site may preload some modules.
    bare = _imported("-c", "pass")

    def package(modules):
        return {m for m in modules if m.startswith("carrychain.")}

    cli = _imported("-c", "import carrychain.cli") - bare
    assert package(cli) == {"carrychain.cli"}
    assert not cli & {"dataclasses", "inspect", "json", "random", "typing"}
    # Under -m the cli module runs as __main__, so it is not in these sets.
    triangle = _imported("-m", "carrychain.cli", "triangle", "--p", "5/3",
                         "--n-max", "3") - bare
    assert package(triangle) == {"carrychain.eulerian"}
    uniform = _imported("-m", "carrychain.cli", "uniform-sum", "--p", "5/3",
                        "--n", "3") - bare
    assert package(uniform) == {"carrychain.eulerian", "carrychain.uniformsum"}
    find = _imported("-m", "carrychain.cli", "find-system", "--p", "5/3",
                     "--n", "4") - bare
    assert package(find) == {"carrychain.carries", "carrychain.eulerian"}
    digits = _imported("-m", "carrychain.cli", "matrix", "--base", "3",
                       "--digits=-1,0,4", "--n", "2") - bare
    assert "carrychain.carries" in digits
    assert not digits & {"carrychain.spectral", "carrychain.simulate",
                         "carrychain.uniformsum"}
    simulate = _imported("-m", "carrychain.cli", "simulate", "--base", "3",
                         "--d", "-1", "--n", "2", "--steps", "2000",
                         "--seed", "1") - bare
    assert "carrychain.simulate" in simulate
    assert not simulate & {"carrychain.spectral", "carrychain.exactmath"}
    verify = _imported("-m", "carrychain.cli", "verify", "--base", "3",
                       "--d", "-1", "--n", "2") - bare
    assert "carrychain.spectral" in verify
    assert not verify & {"dataclasses", "inspect", "json", "typing",
                         "carrychain.simulate"}


def test_chain_stationary_keeps_its_old_addresses():
    from carrychain import carries, spectral

    assert (carrychain.chain_stationary is spectral.chain_stationary
            is carries.chain_stationary)


def _records():
    system = NumerationSystem(base_magnitude=5, d=-1)
    spec = ChainSpec(system=system, n=3)
    config = SimConfig(spec=spec, steps=2000, seed=7)
    report = ChainReport(spec=spec, states=[0, 1], p=Fraction(3, 2),
                         P=ExactMatrix([[1, 0], [0, 1]]), V=ExactMatrix([[1]]),
                         spectrum=[Fraction(1)], pi=[Fraction(1, 2)],
                         verdicts={})
    result = SimResult(config=config, counts={0: 3}, empirical={0: 0.5},
                       tv_distance=0.25)
    return [
        (system, NumerationSystem(5, -1, False),
         "NumerationSystem(base_magnitude=5, d=-1, negative=False)"),
        (spec, ChainSpec(NumerationSystem(5, -1), 3),
         "ChainSpec(system=NumerationSystem(base_magnitude=5, d=-1, "
         "negative=False), n=3)"),
        (StateSpace(s=-1, t=2), StateSpace(-1, 2), "StateSpace(s=-1, t=2)"),
        (CheckResult(passed=True), CheckResult(True, ""),
         "CheckResult(passed=True, detail='')"),
        (config, SimConfig(spec, 2000, 7, 1000),
         "SimConfig(spec=ChainSpec(system=NumerationSystem(base_magnitude=5, "
         "d=-1, negative=False), n=3), steps=2000, seed=7, burn_in=1000)"),
        (report, ChainReport(spec, [0, 1], Fraction(3, 2),
                             ExactMatrix([[1, 0], [0, 1]]), ExactMatrix([[1]]),
                             [Fraction(1)], [Fraction(1, 2)], {}),
         "ChainReport(spec=ChainSpec(system=NumerationSystem(base_magnitude=5, "
         "d=-1, negative=False), n=3), states=[0, 1], p=Fraction(3, 2), "
         "P=ExactMatrix([[Fraction(1, 1), Fraction(0, 1)], [Fraction(0, 1), "
         "Fraction(1, 1)]]), V=ExactMatrix([[Fraction(1, 1)]]), "
         "spectrum=[Fraction(1, 1)], pi=[Fraction(1, 2)], verdicts={})"),
        (result, SimResult(config, {0: 3}, {0: 0.5}, 0.25,
                           "mt19937-digit-sum-bisect"),
         "SimResult(config=SimConfig(spec=ChainSpec(system=NumerationSystem("
         "base_magnitude=5, d=-1, negative=False), n=3), steps=2000, seed=7, "
         "burn_in=1000), counts={0: 3}, empirical={0: 0.5}, tv_distance=0.25, "
         "generator='mt19937-digit-sum-bisect')"),
    ]


def test_record_types_keep_value_semantics():
    records = _records()
    assert len({type(r) for r, _, _ in records}) == 7
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
    system, spec, space, check, config, report, result = (r for r, _, _ in records)
    assert system.negative is False and system.base == 5
    assert spec != ChainSpec(system, 4) and space.states == [-1, 0, 1, 2]
    assert check.detail == "" and config.burn_in == 1000
    assert report.verdicts == {} and report.verified
    assert result.generator == "mt19937-digit-sum-bisect"
    assert result.samples == 1000


@pytest.mark.parametrize("build,message", [
    (lambda: NumerationSystem(1, 0), "base magnitude must be >= 2, got 1"),
    (lambda: NumerationSystem(3, 1), "digit set {1, ..., 3} must contain 0"),
    (lambda: NumerationSystem(3, -3), "digit set {-3, ..., -1} must contain 0"),
    (lambda: ChainSpec(NumerationSystem(3, -1), 0),
     "need at least one summand, got n=0"),
    (lambda: SimConfig(ChainSpec(NumerationSystem(3, -1), 2), 10, 1, burn_in=-1),
     "burn_in must be >= 0, got -1"),
    (lambda: SimConfig(ChainSpec(NumerationSystem(3, -1), 2), 10, 1, burn_in=10),
     "steps (10) must exceed burn_in (10)"),
])
def test_record_types_validate_with_the_same_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
