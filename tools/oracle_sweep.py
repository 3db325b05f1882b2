"""Oracle sweep: the closed-form transition matrix against the brute-force count.

Usage: python tools/oracle_sweep.py

Compares carries.transition_matrix and state_space with the definition-level
carries.transition_matrix_bruteforce on every system with base magnitude
2-24, every least digit d, 1-30 summands and both base signs: 17,940 systems,
far past the 2,700 of acceptance criterion 4. Each pair must agree exactly:
the same states and the same matrix. The check is tests/cases.py's
oracle_mismatch, the one criterion 4 and the hypothesis test in
tests/test_carries.py call.

Prints one summary line. On any mismatch it also lists the first ones and
exits 1; otherwise it exits 0. Stdlib only; runs on the checkout's src/ and
tests/.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cases import oracle_mismatch, spec  # noqa: E402

BASES = range(2, 25)
SUMMANDS = range(1, 31)
SHOWN = 10


def main() -> int:
    start = time.perf_counter()
    total, bad = 0, []
    for negative in (False, True):
        for b in BASES:
            for d in range(-(b - 1), 1):
                for n in SUMMANDS:
                    s = spec(b, d, n, negative)
                    total += 1
                    if (what := oracle_mismatch(s)) is not None:
                        bad.append((s.base, d, n, what))
    print(f"{total} systems (|b| {BASES.start}-{BASES.stop - 1}, every d, "
          f"n {SUMMANDS.start}-{SUMMANDS.stop - 1}, both signs): {len(bad)} "
          f"mismatches in {time.perf_counter() - start:.1f} s")
    for base, d, n, what in bad[:SHOWN]:
        print(f"  base {base}, d {d}, n {n}: {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
