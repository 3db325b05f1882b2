"""Cold start-up split of one carrychain request.

Usage: python tools/coldstart.py ARGV...
e.g.   PYTHONPATH=src python tools/coldstart.py verify --base 16 --d -3 --n 40

Spawns SPAWNS = 9 probe interpreters, each after a bare `python -c pass`,
one at a time and in the caller's environment: PYTHONPATH picks the
carrychain that is measured, and PYTHONDONTWRITEBYTECODE=1 makes every
import compile from source. Prints the median over the spawns, in ms, of:

  python -c pass  the interpreter floor that every request pays
  spawn           the whole probe process, floor included
  import          import carrychain.cli
  parser          build_parser() and parse_args(ARGV)
  run 1, run 2    the command, twice in one process; run 1's excess over
                  run 2 is mostly its lazy imports and their compilation,
                  carrychain.commands among them
  render          the document rendered to an in-memory stream (csv and
                  pretty include the import of carrychain.tables)

The probe runs main()'s own steps, cli.check_cost and then cli.dispatch, so a
refused ARGV runs no command. Exit status 0, or 2 when a spawn fails (its
stderr is shown).
Stdlib only. CI takes no timings from it; tests/test_cli.py runs it with one
spawn, so that the probe keeps step with cli.main().
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

SPAWNS = 9

PROBE = r"""
import io, json, sys
from time import perf_counter
t0 = perf_counter()
import carrychain.cli as cli
t1 = perf_counter()
args = cli.build_parser().parse_args(sys.argv[1:])
t2 = perf_counter()
try:
    cli.check_cost(args)
except ValueError as exc:
    sys.exit(f"error: {exc}")
t3 = perf_counter()
payload, _ = cli.dispatch(args)
t4 = perf_counter()
cli.dispatch(args)
t5 = perf_counter()
cli.render(cli._document(args, payload), args.format, io.StringIO())
t6 = perf_counter()
print(json.dumps({"import": t1 - t0, "parser": t2 - t1, "run 1": t4 - t3,
                  "run 2": t5 - t4, "render": t6 - t5}))
"""


def _spawn(cmd: list[str], label: str) -> tuple[float, str]:
    """(wall seconds, stdout) of one child; exits 2 if the child fails."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"{label} exited {proc.returncode}:\n{proc.stderr.strip()}",
              file=sys.stderr)
        raise SystemExit(2)
    return wall, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="a carrychain command line")
    opts = parser.parse_args()
    if not opts.argv:
        parser.error("give a carrychain command line")
    samples: dict[str, list[float]] = {"python -c pass": [], "spawn": []}
    for _ in range(SPAWNS):
        samples["python -c pass"].append(
            _spawn([sys.executable, "-c", "pass"], "python -c pass")[0])
        wall, out = _spawn([sys.executable, "-c", PROBE, *opts.argv],
                           "carrychain " + " ".join(opts.argv))
        samples["spawn"].append(wall)
        for phase, seconds in json.loads(out).items():
            samples.setdefault(phase, []).append(seconds)
    print(f"median of {SPAWNS} cold spawns: carrychain "
          f"{' '.join(opts.argv)}")
    for phase, values in samples.items():
        print(f"  {phase:<15} {statistics.median(values) * 1e3:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
