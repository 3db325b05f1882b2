"""Oracle sweep: the closed-form claims checked on grids far past Tier-1's.

Usage: python tools/oracle_sweep.py

Runs the three checks of tests/cases.py that Tier-1 runs on smaller grids.
On every system with base magnitude 2-24, every least digit d, 1-30
summands and both base signs (17,940 systems): oracle_mismatch, the
closed-form transition matrix and state space against the definition-level
brute-force oracle (criterion 4: 2,700 systems), and
diagonalization_failures, every verdict of verify_diagonalization:
V P = D V, det V != 0, pi P = pi, sum(pi) = 1 (criterion 3: 650 systems).
On every pair of such systems with base magnitudes 2-9 and one n in 1-8
(19,984 triples): product_rule_failures, Holte's product rule
P(s1) P(s2) = P(s) (tests/test_carries.py: 1,572 triples).

Prints one summary line per grid, with each check's failures counted apart.
On any failure it also lists the first ones and exits 1; otherwise it exits
0. Stdlib only; runs on the checkout's src/ and tests/.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import cases  # noqa: E402

BASES = range(2, 25)
SUMMANDS = range(1, 31)
PRODUCT_BASES = range(2, 10)
PRODUCT_SUMMANDS = range(1, 9)
SHOWN = 10


def main() -> int:
    start = time.perf_counter()
    grid, mismatches, failures = list(cases.chains(BASES, SUMMANDS)), [], []
    for s in grid:
        if (what := cases.oracle_mismatch(s)) is not None:
            mismatches.append((s, what))
        if failed := cases.diagonalization_failures(s):
            failures.append((s, ", ".join(failed)))
    print(f"{len(grid)} systems (|b| {BASES.start}-{BASES.stop - 1}, every d, "
          f"n {SUMMANDS.start}-{SUMMANDS.stop - 1}, both signs): "
          f"{len(mismatches)} oracle mismatches, {len(failures)} verify "
          f"failures in {time.perf_counter() - start:.1f} s")
    start = time.perf_counter()
    products, checked = cases.product_rule_failures(PRODUCT_BASES,
                                                    PRODUCT_SUMMANDS)
    print(f"{checked} product-rule triples (|b1|, |b2| {PRODUCT_BASES.start}-"
          f"{PRODUCT_BASES.stop - 1}, n {PRODUCT_SUMMANDS.start}-"
          f"{PRODUCT_SUMMANDS.stop - 1}): {len(products)} failures in "
          f"{time.perf_counter() - start:.1f} s")
    for label, bad in (("oracle mismatch", mismatches),
                       ("verify failure", failures),
                       ("product rule", [(f"{s1} @ {s2}", f"!= {s}")
                                         for s1, s2, s in products])):
        for where, what in bad[:SHOWN]:
            print(f"  {label}: {where}: {what}")
    return 1 if mismatches or failures or products else 0


if __name__ == "__main__":
    sys.exit(main())
