"""Mutant ledger: each named mutation of src/ must make its target tests fail.

Usage: python tools/mutants.py

A mutant is an exact (file, old, new, targets) replacement. ``old`` must occur
exactly once in the file, so a mutant that no longer matches the code fails
loudly instead of surviving silently. Each mutant is applied to a temporary
copy of src/ and tests/, never to the checkout, and its targets run there
with ``pytest -x``. The targets first run once on an unmutated copy, since a
target that already fails would count every mutant as killed.

Prints one line per mutant: killed (with the first failing test) or survived.
A run that gives no result within TIMEOUT_S counts as killed. Exit status:
0 when every mutant is killed, 1 when one survives, 2 when a mutant is stale
or a run ends in anything but a pass, a test failure or the timeout.
Stdlib only; the targets need pytest and hypothesis, as the test suite does.
"""

from __future__ import annotations

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
    ("find-system-limit", PKG + "cli.py",
     "lambda a: a.n.bit_length() + _p_bits(a.p), 14000)",
     "lambda a: a.n.bit_length() + _p_bits(a.p), 14001)",
     ["tests/test_cli.py"]),
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
     "for t in range(top + 1)], cols)\n         for i in range(m)], [bn] * m)",
     "for t in range(top + 1)], cols)\n         for i in range(m)], [bn * b] * m)",
     ["tests/test_carries.py"]),
    ("binomial-top", PKG + "carries.py",
     "_count_binom(n + b * t + e - i, n)",
     "_count_binom(n + b * t + e - i + 1, n)",
     [CRITERION + "04_oracle_equivalence", "tests/test_carries.py"]),
    ("emitter-num-den-swap", PKG + "cli.py",
     '[f"{head}{num}{mid}{den}{tail}" for num, den in row]',
     '[f"{head}{den}{mid}{num}{tail}" for num, den in row]',
     ["tests/test_cli.py"]),
    ("csv-mapping-separator", PKG + "cli.py",
     'writer.writerow([key, *[f"{k}={v}" for k, v in cells]])',
     'writer.writerow([key, *[f"{k}:{v}" for k, v in cells]])',
     ["tests/test_cli.py"]),
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
    ("zero-digit-check", PKG + "numeration.py",
     "if not (d <= 0 <= d + b - 1):",
     "if not (d <= 0):",
     ["tests/test_numeration.py"]),
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
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
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
