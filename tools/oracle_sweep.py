"""Oracle sweep: the closed-form transition matrix against the brute-force count.

Usage: python tools/oracle_sweep.py

Compares carries.transition_matrix and state_space with the definition-level
carries.transition_matrix_bruteforce on every system with base magnitude
2-24, every least digit d, 1-30 summands and both base signs: 17,940 systems,
far past the 2,700 of acceptance criterion 4. Each pair must agree exactly:
the same states and the same matrix.

Prints one summary line. On any mismatch it also lists the first ones and
exits 1; otherwise it exits 0. Stdlib only; runs on the checkout's src/.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carrychain.carries import (  # noqa: E402
    ChainSpec,
    NumerationSystem,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)

BASES = range(2, 25)
SUMMANDS = range(1, 31)
SHOWN = 10


def _mismatch(spec: ChainSpec) -> str | None:
    """What differs between the two routes for spec, or None."""
    system = spec.system
    try:
        states, P = transition_matrix_bruteforce(system.base, system.digits,
                                                 spec.n)
    except (ValueError, RuntimeError) as exc:
        return f"oracle raised {exc}"
    if states != state_space(spec).states:
        return f"states {states} != {state_space(spec).states}"
    if P != transition_matrix(spec):
        return "matrix differs"
    return None


def main() -> int:
    start = time.perf_counter()
    total, bad = 0, []
    for negative in (False, True):
        for b in BASES:
            for d in range(-(b - 1), 1):
                for n in SUMMANDS:
                    spec = ChainSpec(NumerationSystem(b, d, negative), n)
                    total += 1
                    if (what := _mismatch(spec)) is not None:
                        bad.append((spec.system.base, d, n, what))
    print(f"{total} systems (|b| {BASES.start}-{BASES.stop - 1}, every d, "
          f"n {SUMMANDS.start}-{SUMMANDS.stop - 1}, both signs): {len(bad)} "
          f"mismatches in {time.perf_counter() - start:.1f} s")
    for base, d, n, what in bad[:SHOWN]:
        print(f"  base {base}, d {d}, n {n}: {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
