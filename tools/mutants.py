"""Mutant ledger: each named mutation of src/ must make its target tests fail.

Usage: python tools/mutants.py

A mutant is an exact (file, old, new, targets) replacement. ``old`` must occur
exactly once in the file, so a mutant that no longer matches the code fails
loudly instead of surviving silently. The cost-row mutants are not listed:
_cost_rows makes one for each row of cli.COST_LIMITS. Each mutant is applied
to a temporary copy of src/ and tests/, never to the checkout, and its
targets run there with ``pytest -x``. The targets first run once on an
unmutated copy, since a target that already fails would count every mutant
as killed.

Prints one line per mutant: killed (with the first failing test) or survived.
A run that gives no result within TIMEOUT_S counts as killed. Exit status:
0 when every mutant is killed, 1 when one survives, 2 when a mutant is stale
or a run ends in anything but a pass, a test failure or the timeout.
Stdlib only; the targets need pytest and hypothesis, as the test suite does.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/carrychain/"
TIMEOUT_S = 300

# Deterministic char_poly cases: a property test that fails spends a minute
# shrinking its counterexample.
CHAR_POLY_CASES = [
    "tests/test_exactmath.py::test_char_poly_trace_and_det_coefficients",
    "tests/test_exactmath.py::test_char_poly_matches_interpolation_on_carry_chains",
    "tests/test_carries.py::test_bruteforce_sparse_digit_char_poly",
]

CRITERION = "tests/test_acceptance.py::test_criterion_"
GUARD = "tests/test_cli.py::test_cost_guards_refuse_before_any_work["
GOLDEN = "tests/test_cli.py::test_golden_output"
JSON_REFERENCE = "tests/test_cli.py::test_json_emitter_matches_reference_on_"


def _elements(text: str, name: str) -> list[ast.expr]:
    """The elements of the top-level tuple or list assigned to name in text."""
    (value,) = [node.value for node in ast.parse(text).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]]
    return value.elts


def _cost_rows() -> list[tuple]:
    """One mutant per cli.COST_LIMITS row that raises its limit by one: old is
    the row's source text. The mutant is named after and killed by the row's
    case of the cost guard test: the case with the row's option whose id is
    the row's command or starts with it and a hyphen."""
    tests = (ROOT / "tests" / "test_cli.py").read_text()
    cases = [(case.value, option.value) for case, option, *_ in
             (g.elts for g in _elements(tests, "GUARD_CASES"))]
    cli = (ROOT / PKG / "cli.py").read_text()
    mutants = []
    for row in _elements(cli, "COST_LIMITS"):
        command, option, _, limit = row.elts
        (case,) = [case for case, opt in cases if opt == option.value
                   and f"{case}-".startswith(f"{command.value}-")]
        old = ast.get_source_segment(cli, row)
        head, _, tail = old.rpartition(ast.get_source_segment(cli, limit))
        mutants.append((f"cost-{case}", PKG + "cli.py", old,
                        f"{head}{limit.value + 1}{tail}", [f"{GUARD}{case}]"]))
    return mutants


# (name, file, old, new, target test files or node ids)
MUTANTS = [
    ("oracle-weight", PKG + "carries.py",
     "out[nxt] = out.get(nxt, 0) + w",
     "out[nxt] = out.get(nxt, 0) + 1",
     ["tests/test_carries.py"]),
    ("oracle-frontier-order", PKG + "carries.py",
     "frontier = sorted({x for c in frontier for x in moves[c]}",
     "frontier = list({x for c in frontier for x in moves[c]}",
     ["tests/test_carries.py"]),
    ("tv-sum", PKG + "simulate.py",
     "sum(abs(Fraction(x) - Fraction(y))",
     "sum((Fraction(x) - Fraction(y))",
     ["tests/test_simulate.py"]),
    ("square-check", PKG + "exactmath.py",
     "    if a.rows != a.cols:\n        raise ValueError(\"determinant",
     "    if a.rows > a.cols:\n        raise ValueError(\"determinant",
     ["tests/test_exactmath.py"]),
    ("berkowitz-sign", PKG + "exactmath.py",
     "column.append(-sum(map(mul, row, vec)))",
     "column.append(sum(map(mul, row, vec)))",
     CHAR_POLY_CASES),
    ("char-poly-rescale-power", PKG + "exactmath.py",
     "Fraction(c, big ** i)",
     "Fraction(c, big ** (i + 1))",
     CHAR_POLY_CASES),
    ("from-int-rows-gcd", PKG + "exactmath.py",
     "g = [gcd(d, *row) for row, d in zip(num, den)]",
     "g = [1 for row, d in zip(num, den)]",
     ["tests/test_exactmath.py", "tests/test_carries.py"]),
    ("bareiss-swap-sign", PKG + "exactmath.py",
     "            sign = -sign\n",
     "            sign = sign\n",
     ["tests/test_exactmath.py"]),
    ("v-reverse-flip", PKG + "spectral.py",
     "cols = range(m - 1, -1, -1) if reverse else range(m)",
     "cols = range(m)",
     ["tests/test_spectral.py"]),
    ("p-denominators", PKG + "carries.py",
     "[b ** n] * len(states)",
     "[b ** (n + 1)] * len(states)",
     ["tests/test_carries.py"]),
    ("binomial-top", PKG + "carries.py",
     "shift = b - 1 - (n - 1) * sys_.d",
     "shift = b - (n - 1) * sys_.d",
     [CRITERION + "04_oracle_equivalence", "tests/test_carries.py"]),
    ("carry-sign", PKG + "carries.py",
     "[(base * x + shift - c) // b for x in states]",
     "[(b * x + shift - c) // b for x in states]",
     [CRITERION + "04_oracle_equivalence", "tests/test_carries.py"]),
    # One per output path: the JSON matrix and Fraction branches, the scalar
    # fast path, csv mapping cells and pretty alignment.
    ("emitter-num-den-swap", PKG + "cli.py",
     '[f"{head}{num}{mid}{den}{tail}" for num, den in row]',
     '[f"{head}{den}{mid}{num}{tail}" for num, den in row]',
     [GOLDEN, JSON_REFERENCE + "commands"]),
    ("json-fraction-numerator", PKG + "cli.py",
     '"num": "{value.numerator}"',
     '"num": "{value.denominator}"',
     [GOLDEN, JSON_REFERENCE + "synthetic_docs"]),
    ("scalar-quote-check", PKG + "cli.py",
     "and '\"' not in value and",
     "and",
     ["tests/test_cli.py::test_scalar_fast_path_matches_json_dumps",
      JSON_REFERENCE + "synthetic_docs"]),
    ("csv-mapping-separator", PKG + "cli.py",
     'writer.writerow([key, *[f"{k}={v}" for k, v in cells]])',
     'writer.writerow([key, *[f"{k}:{v}" for k, v in cells]])',
     [GOLDEN]),
    ("pretty-right-align", PKG + "cli.py",
     "cell.rjust(widths[j])",
     "cell.ljust(widths[j])",
     [GOLDEN, "tests/test_cli.py::test_csv_and_pretty_reduce_matrix_entries"]),
    ("value-error-exit-code", PKG + "cli.py",
     '        print(f"error: {exc}", file=sys.stderr)\n        return EXIT_USAGE',
     '        print(f"error: {exc}", file=sys.stderr)\n'
     '        return EXIT_VERIFICATION_FAILED',
     ["tests/test_cli.py"]),
    ("eigenbasis-proof", PKG + "spectral.py",
     "nonsingular = all(any(row) for row, _ in V.int_rows())",
     "nonsingular = True",
     ["tests/test_spectral.py"]),
    ("oracle-interval-guard", PKG + "carries.py",
     "if any(not low <= c <= high for c in frontier):",
     "if False:",
     ["tests/test_cli.py::test_internal_error_exits_three"]),
    ("sim-state-guard", PKG + "simulate.py",
     "if not lo <= c <= hi:",
     "if False:",
     ["tests/test_cli.py::test_internal_error_exits_three"]),
    ("sim-output-digit", PKG + "simulate.py",
     "a = d + (total - d) % b",
     "a = total % b",
     ["tests/test_simulate.py"]),
    ("zero-digit-check", PKG + "carries.py",
     "if not (d <= 0 <= d + b - 1):",
     "if not (d <= 0):",
     ["tests/test_carries.py::test_invalid_systems_rejected"]),
    ("lazy-dir", PKG + "__init__.py",
     "return sorted({*globals(), *__all__})",
     "return sorted(globals())",
     ["tests/test_package.py"]),
    # One per closed form: V, pi, p, the Eulerian and Irwin-Hall kernels,
    # and the alternating binomial sum that P and V share.
    ("eigen-row-power", PKG + "spectral.py",
     "(k * t + l) ** (n - i)",
     "(k * t + l) ** (n - i + 1)",
     [CRITERION + "02_matrix_reproduction"]),
    ("stationary-scale", PKG + "eulerian.py",
     "total = k ** n * factorial(n)",
     "total = k ** n * factorial(n + 1)",
     [CRITERION + "03_diagonalization_grid"]),
    ("p-param-reciprocal", PKG + "carries.py",
     "return 1 / (x - math.floor(x))",
     "return 1 / (math.ceil(x) - x)",
     ["tests/test_carries.py"]),
    ("triangle-recurrence-weight", PKG + "eulerian.py",
     "(K * (n + 1 - k) - L)",
     "(K * (n - k) - L)",
     [CRITERION + "01_triangle_reproduction"]),
    ("alternating-binomial", PKG + "eulerian.py",
     "comb(n + 1, r) for r in range(min(len(f), n + 2))",
     "comb(n, r) for r in range(min(len(f), n + 2))",
     [CRITERION + "02_matrix_reproduction"]),
    ("irwin-hall-kernel", PKG + "uniformsum.py",
     "(a - j * k) ** n",
     "(a - j * k) ** (n - 1)",
     ["tests/test_uniformsum.py"]),
    ("float-interval-lower-end", PKG + "uniformsum.py",
     "- _cdf(n, 1 / p + k - 1)",
     "- _cdf(n, 1 / p + k - 2)",
     ["tests/test_uniformsum.py::test_float_path_tracks_exact_path"]),
]
# One per cli.COST_LIMITS row, named after its guard test case.
MUTANTS += _cost_rows()


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests", "tools"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _run(copy: Path, targets: list[str]) -> tuple[str, str]:
    """("passed" | "failed" | "timeout" | "error", first failing test or log)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
           "-p", "no:cacheprovider", *targets]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result within {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "passed", ""
    if proc.returncode == 1:
        failed = [line.split(" - ")[0].split(" ", 1)[1]
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return "failed", failed[0] if failed else "?"
    return "error", proc.stdout[-2000:] + proc.stderr[-2000:]


def _mutate(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        print(f"stale mutant: {old!r} occurs {text.count(old)} times in {file},"
              " not once")
        raise SystemExit(2)
    path.write_text(text.replace(old, new))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        targets = sorted({t for m in MUTANTS for t in m[4]})
        status, detail = _run(Path(tmp), targets)
        if status != "passed":
            print(f"unmutated targets did not pass ({status}): {detail}")
            return 2
    survivors, errors = [], []
    start = time.perf_counter()
    for name, file, old, new, targets in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            _mutate(Path(tmp), file, old, new)
            status, detail = _run(Path(tmp), targets)
        took = time.perf_counter() - t0
        if status == "passed":
            survivors.append(name)
            print(f"SURVIVED {name} ({took:.1f} s)")
        elif status == "error":
            errors.append(name)
            print(f"ERROR    {name} ({took:.1f} s)\n{detail}")
        else:
            print(f"killed   {name} by {detail} ({took:.1f} s)")
    print(f"{len(MUTANTS) - len(survivors) - len(errors)} of {len(MUTANTS)} "
          f"killed in {time.perf_counter() - start:.1f} s; survived: "
          f"{', '.join(survivors) or 'none'}")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
