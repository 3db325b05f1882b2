"""Oracle sweep: the closed-form claims checked on a grid far past Tier-1's.

Usage: python tools/oracle_sweep.py

On every system with base magnitude 2-24, every least digit d, 1-30
summands and both base signs (17,940 systems), runs the two checks of
tests/cases.py that Tier-1 runs on smaller grids:

  oracle_mismatch           carries.transition_matrix and state_space against
                            the definition-level transition_matrix_bruteforce
                            (criterion 4 and the hypothesis test in
                            tests/test_carries.py, 2,700 systems and more)
  diagonalization_failures  every verdict of spectral.verify_diagonalization:
                            V P = D V, det V != 0, pi P = pi, sum(pi) = 1
                            (criterion 3, 650 systems)

Prints one summary line with the oracle mismatches and the verify failures
counted apart. On any failure it also lists the first ones and exits 1;
otherwise it exits 0. Stdlib only; runs on the checkout's src/ and tests/.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cases import diagonalization_failures, oracle_mismatch, spec  # noqa: E402

BASES = range(2, 25)
SUMMANDS = range(1, 31)
SHOWN = 10


def main() -> int:
    start = time.perf_counter()
    total, mismatches, failures = 0, [], []
    for negative in (False, True):
        for b in BASES:
            for d in range(-(b - 1), 1):
                for n in SUMMANDS:
                    s = spec(b, d, n, negative)
                    total += 1
                    if (what := oracle_mismatch(s)) is not None:
                        mismatches.append((s.base, d, n, what))
                    if failed := diagonalization_failures(s):
                        failures.append((s.base, d, n, ", ".join(failed)))
    print(f"{total} systems (|b| {BASES.start}-{BASES.stop - 1}, every d, "
          f"n {SUMMANDS.start}-{SUMMANDS.stop - 1}, both signs): "
          f"{len(mismatches)} oracle mismatches, {len(failures)} verify "
          f"failures in {time.perf_counter() - start:.1f} s")
    for label, bad in (("oracle mismatch", mismatches),
                       ("verify failure", failures)):
        for base, d, n, what in bad[:SHOWN]:
            print(f"  {label}: base {base}, d {d}, n {n}: {what}")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())
