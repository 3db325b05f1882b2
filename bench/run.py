"""Benchmark of the carrychain CLI: end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

With ``--trace 0`` every request is one ``python -m carrychain.cli ...``
subprocess, closed loop, one client; the run reports the end-to-end metrics.
With ``--trace 1`` the same request list is served in process through
``carrychain.cli.main(argv)`` with spans around each layer's public functions,
and the run reports the per-layer metrics. Every response is checked exactly.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checks import check_response
from spans import Tracer, layer_shares, summarize
from workloads import BASELINES, WARMUP, WORKLOADS, Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# An end-to-end run replays at least this many whole cycles, so every
# request is measured more than once and the tail percentile is fixed.
MIN_CYCLES = 2
# Set-up probes run at this many evenly spaced points of every cycle of the
# timed phase, so that set-up is measured under the same conditions as the
# requests.
PROBES_PER_CYCLE = 4
REQUEST_TIMEOUT_S = 45.0
# No new request starts after this much of the timed phase, so that a run
# ends within its time limit even if the program becomes much slower.
HARD_STOP_S = 100.0
# The percentiles a tail latency may be reported at (see tail_latency).
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

PROBE = ("import time; t = time.perf_counter(); import carrychain.cli; "
         "print(time.perf_counter() - t); print(carrychain.__file__)")

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_request": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, better, which end-to-end metric it should move
# and where it should stay flat). Times are seconds per request; "self" times
# exclude the time of the child spans.
PER_LAYER = {
    "exactmath.matmul_s": ("s", "lower", "latency_p50_s, requests_per_s on verify-large and charpoly; flat on cli-small"),
    "exactmath.matmul_calls": ("count", "lower", "as matmul_s"),
    "exactmath.matmul_mults": ("count", "lower", "as matmul_s (rows x inner x cols, computed)"),
    "exactmath.determinant_s": ("s", "lower", "latency_p50_s on verify-large; flat elsewhere"),
    "exactmath.char_poly_s": ("s", "lower", "latency_p50_s on charpoly (self, products excluded); flat elsewhere"),
    "exactmath.max_num_bits": ("bits", "lower", "cost factor of every exactmath time; verify-large, charpoly"),
    "exactmath.max_den_bits": ("bits", "lower", "as max_num_bits"),
    "eulerian.v_closed_s": ("s", "lower", "latency_p50_s on verify-large"),
    "eulerian.v_closed_calls": ("count", "lower", "as v_closed_s"),
    "eulerian.stationary_s": ("s", "lower", "latency_p50_s on verify-large"),
    "eulerian.triangle_recurrence_s": ("s", "lower", "latency_p50_s on cli-small"),
    "carries.transition_matrix_s": ("s", "lower", "latency_p50_s on verify-large, charpoly"),
    "carries.bruteforce_s": ("s", "lower", "latency_p50_s on charpoly only"),
    "carries.states_total": ("count", "lower", "workload size (sum of m); should not move"),
    "spectral.verify_diagonalization_s": ("s", "lower", "latency_p50_s on verify-large (self)"),
    "spectral.eigen_matrix_s": ("s", "lower", "latency_p50_s on verify-large (self, v_closed excluded)"),
    "simulate.run_chain_s": ("s", "lower", "cpu_s_per_request on cli-small (its simulate requests); flat on verify-large, charpoly"),
    "simulate.steps_per_s": ("1/s", "higher", "as run_chain_s"),
    "uniformsum.interval_prob_s": ("s", "lower", "latency_p50_s on cli-small"),
    "cli.import_s": ("s", "lower", "setup_s on every workload"),
    "cli.build_parser_s": ("s", "lower", "latency_p50_s on cli-small"),
    "cli.render_s": ("s", "lower", "latency_p50_s on cli-small, verify-large"),
    "cli.output_bytes": ("bytes", "lower", "render cost; should not move unless the output changes"),
    "cli.main_self_s": ("s", "lower", "latency_p50_s on cli-small"),
    "trace.overhead_s": ("s", "lower", "traced in-process time minus (untraced latency - setup_s)"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    request: Request
    latency_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    stdout: str
    stderr: str
    error: str | None = None

    @property
    def stdout_bytes(self) -> int:
        return len(self.stdout.encode())


def check_all(outcomes: list[Outcome]) -> list[Outcome]:
    """Check every response; run after the timed phase, not inside it."""
    for o in outcomes:
        o.error = check_response(o.request, o.code, o.stdout, o.stderr)
    return outcomes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Starts processes through ``launcher.py``, one at a time.

    Children are forked by that small process rather than by this one, so
    that their max-RSS is their own (see launcher.py).
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.read()  # a reply still in flight, if any
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def spawn(self, args: list[str], timeout: float = REQUEST_TIMEOUT_S):
        """Run the interpreter with ``args``; (code, stdout, stderr, wall s,
        cpu s, max-RSS kB)."""
        self.proc.stdin.write(json.dumps([timeout, sys.executable, *args]).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the process launcher stopped")
        code, wall, cpu, maxrss, n_out, n_err, timed_out = json.loads(line)
        out = self.proc.stdout.read(n_out).decode("utf-8", "replace")
        err = self.proc.stdout.read(n_err).decode("utf-8", "replace")
        if timed_out:
            err += f"\nkilled after {timeout:.0f} s"
        return code, out, err, wall, cpu, maxrss


def serve_subprocess(launcher: Launcher, req: Request) -> Outcome:
    code, out, err, wall, cpu, maxrss = launcher.spawn(["-m", "carrychain.cli", *req.argv])
    return Outcome(req, wall, cpu, maxrss, code, out, err)


def probe_setup(launcher: Launcher) -> tuple[float, float]:
    """(wall s, import s) of a fresh interpreter that imports carrychain.cli
    and serves no request; the child measures its own import time."""
    code, out, err, wall, _, _ = launcher.spawn(["-c", PROBE], timeout=60)
    lines = out.splitlines()
    if code != 0 or len(lines) != 2:
        raise BenchError(f"cannot import carrychain.cli from {SRC}: "
                         f"{err.strip()[-300:]}")
    if not Path(lines[1]).resolve().is_relative_to(SRC):
        raise BenchError(f"carrychain resolves to {lines[1]}, not under {SRC}")
    return wall, float(lines[0])


def closed_loop(cycle: list[Request], seconds: float, serve,
                probe=None, min_cycles: int = 1):
    """Replay whole cycles, one request at a time, and stop at the end of the
    cycle nearest to ``seconds`` of timed phase, after ``min_cycles`` cycles
    at least.

    ``probe``, if given, is called at PROBES_PER_CYCLE points of each cycle;
    its time is left out of the timed phase. Returns (outcomes, timed s).
    """
    outcomes: list[Outcome] = []
    every = max(1, len(cycle) // PROBES_PER_CYCLE)
    probe_s = 0.0
    t0 = time.perf_counter()
    while True:
        cycle_t0, cycle_probe_s = time.perf_counter(), probe_s
        for i, req in enumerate(cycle):
            if time.perf_counter() - t0 > HARD_STOP_S:
                break
            if probe is not None and i % every == 0 and i // every < PROBES_PER_CYCLE:
                t = time.perf_counter()
                probe()
                probe_s += time.perf_counter() - t
            outcomes.append(serve(req, len(outcomes)))
        now = time.perf_counter()
        timed = now - t0 - probe_s
        # The next cycle would take about as long as this one; run it only if
        # that ends nearer to ``seconds`` than stopping now does.
        last = now - cycle_t0 - (probe_s - cycle_probe_s)
        done = len(outcomes) >= min_cycles * len(cycle) and timed + last / 2 >= seconds
        if done or now - t0 > HARD_STOP_S:
            return outcomes, timed


def _rank(q: float, n: int) -> int:
    """Nearest rank (1-based) of percentile q in a sample of n."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def per_request_medians(latencies: list[float], n_cycle: int) -> list[float]:
    """The median latency of each request of the cycle over the cycles run.

    ``latencies`` are in serving order, so request i of the cycle is at
    i, i + n_cycle, ... A burst of the host that falls on one of a request's
    repetitions does not move its median.
    """
    return [statistics.median(xs) for i in range(n_cycle)
            if (xs := latencies[i::n_cycle])]


def tail_latency(latencies: list[float], n_min: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest listed percentile
    that leaves at least ten samples beyond it in a run of ``n_min`` requests,
    the fewest a run can hold; the maximum when there is no such percentile.

    Choosing the percentile from the minimum run length, not from the actual
    count, keeps it the same whether the machine or the program is fast or
    slow in a given run. ``latencies`` may be one median per request of the
    cycle, fewer values than ``n_min``; the percentile is then taken over
    those, and each value beyond it stands for at least ``n_min / n_cycle``
    requests served.
    """
    xs = sorted(latencies)
    for q in TAIL_PERCENTILES:
        if n_min - _rank(q, n_min) >= 10:
            rank = _rank(q, len(xs))
            return xs[rank - 1], q, len(xs) - rank
    return xs[-1], 100.0, 0


def warm_up(launcher: Launcher) -> list[Outcome]:
    return check_all([serve_subprocess(launcher, req) for req in WARMUP])


def prepare(workload: str, seed: int) -> list[Request]:
    if not (SRC / "carrychain" / "cli.py").is_file():
        raise BenchError(f"no carrychain sources under {SRC}")
    return WORKLOADS[workload](seed)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(workload: str, seed: int, seconds: float):
    cycle = prepare(workload, seed)
    probes: list[tuple[float, float]] = []
    with Launcher() as launcher:
        warm = warm_up(launcher)
        outcomes, elapsed = closed_loop(
            cycle, seconds, lambda r, _: serve_subprocess(launcher, r),
            lambda: probes.append(probe_setup(launcher)), MIN_CYCLES)
    check_all(outcomes)
    setup_s = statistics.median(wall for wall, _ in probes)
    lat = [o.latency_s for o in outcomes]
    ok = sum(o.error is None for o in outcomes)
    # The tail of single requests is where the host's bursts land (wall time
    # far above CPU time for a few seconds), so the tail is taken over each
    # request's median over the cycles: the slow end of the request mix.
    medians = per_request_medians(lat, len(cycle))
    cycles = len(lat) // len(cycle)
    tail, q, beyond = tail_latency(medians, MIN_CYCLES * len(cycle))
    values = {
        "setup_s": setup_s,
        "requests_per_s": ok / elapsed,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "cpu_s_per_request": sum(o.cpu_s for o in outcomes) / len(outcomes),
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    notes = {"setup_s": f"median of {len(probes)} spawns",
             "latency_p50_s": f"{len(lat)} requests",
             "latency_tail_s": f"p{q:g} of {len(medians)} per-request medians over "
                               f"{cycles} cycles, {beyond} requests ({beyond * cycles} "
                               "served) beyond",
             "requests": f"{len(outcomes)} in {elapsed:.2f} s, "
                         f"{len(outcomes) // len(cycle)} whole cycles of {len(cycle)}"}
    return warm + outcomes, metrics, notes


def serve_traced(cli, tracer: Tracer, req: Request, rid: int) -> Outcome:
    tracer.request = rid
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program's failure is recorded, not fatal here
            traceback.print_exc(file=err)
            code = 1
    wall = time.perf_counter() - t0
    tracer.end_request()
    return Outcome(req, wall, 0.0, 0, code, out.getvalue(), err.getvalue())


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("carrychain.cli")
    origin = Path(sys.modules["carrychain"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise BenchError(f"carrychain resolves to {origin}, not under {SRC}")
    return cli


def traced_loop(cycle: list[Request], seconds: float):
    """Serve whole cycles in process with spans; (outcomes, tracer)."""
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, _ = closed_loop(
            cycle, seconds, lambda r, rid: serve_traced(cli, tracer, r, rid))
    finally:
        tracer.uninstall()
    return outcomes, tracer


def layer_metrics(outcomes: list[Outcome], tracer: Tracer) -> dict[str, float]:
    """Per-request averages of span times and counts (see PER_LAYER)."""
    n = len(outcomes)
    summ = summarize(tracer.spans)

    def total(name):
        return summ.get(name, {}).get("total_s", 0.0) / n

    def own(name):
        return summ.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return summ.get(name, {}).get("calls", 0) / n

    run_chain_s = summ.get("simulate.run_chain", {}).get("total_s", 0.0)
    c = tracer.counts
    return {
        "exactmath.matmul_s": total("exactmath.matmul"),
        "exactmath.matmul_calls": calls("exactmath.matmul"),
        "exactmath.matmul_mults": c["exactmath.matmul_mults"] / n,
        "exactmath.determinant_s": total("exactmath.determinant"),
        "exactmath.char_poly_s": own("exactmath.char_poly"),
        "exactmath.max_num_bits": c["exactmath.max_num_bits"],
        "exactmath.max_den_bits": c["exactmath.max_den_bits"],
        "eulerian.v_closed_s": total("eulerian.v_closed"),
        "eulerian.v_closed_calls": calls("eulerian.v_closed"),
        "eulerian.stationary_s": total("eulerian.stationary"),
        "eulerian.triangle_recurrence_s": total("eulerian.triangle_recurrence"),
        "carries.transition_matrix_s": total("carries.transition_matrix"),
        "carries.bruteforce_s": total("carries.bruteforce"),
        "carries.states_total": c["carries.states_total"] / n,
        "spectral.verify_diagonalization_s": own("spectral.verify_diagonalization"),
        "spectral.eigen_matrix_s": own("spectral.eigen_matrix"),
        "simulate.run_chain_s": run_chain_s / n,
        "simulate.steps_per_s": c["simulate.steps"] / run_chain_s if run_chain_s else 0.0,
        "uniformsum.interval_prob_s": total("uniformsum.interval_prob"),
        "cli.build_parser_s": total("cli.build_parser"),
        "cli.render_s": total("cli.render"),
        "cli.output_bytes": sum(o.stdout_bytes for o in outcomes) / n,
        "cli.main_self_s": own("cli.main"),
    }


def write_trace(workload: str, seed: int, outcomes: list[Outcome],
                tracer: Tracer, extra: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "requests": [{"id": i, "argv": list(o.request.argv), "wall_s": o.latency_s,
                      "error": o.error} for i, o in enumerate(outcomes)],
        "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                   "request": s[4]} for s in tracer.spans],
        "counts": dict(tracer.counts),
        **extra,
    }
    path.write_text(json.dumps(doc))
    return path


def run_traced(workload: str, seed: int, seconds: float):
    cycle = prepare(workload, seed)
    probes, plain = [], []
    with Launcher() as launcher:
        warm = warm_up(launcher)
        for req in cycle:  # one set-up probe next to each untraced request
            probes.append(probe_setup(launcher))
            plain.append(serve_subprocess(launcher, req))
    check_all(plain)
    setup_s = statistics.median(wall for wall, _ in probes)
    import_s = statistics.median(imp for _, imp in probes)
    outcomes, tracer = traced_loop(cycle, seconds)
    check_all(outcomes)
    n = len(outcomes)
    traced_s = sum(o.latency_s for o in outcomes) / n
    untraced_s = sum(o.latency_s for o in plain) / len(plain) - setup_s
    values = layer_metrics(outcomes, tracer)
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: metric(values[name], unit)
               for name, (unit, _, _) in PER_LAYER.items()}
    shares = layer_shares(summarize(tracer.spans))
    shares["setup (of subprocess latency)"] = setup_s / (untraced_s + setup_s)
    notes = {"requests": f"{n} traced in process, {len(plain)} untraced subprocesses",
             "traced_inprocess_s": f"{traced_s:.4f} per request",
             "untraced_latency_minus_setup_s": f"{untraced_s:.4f} per request"}
    if tracer.missing:
        notes["missing spans"] = ", ".join(tracer.missing)
    path = write_trace(workload, seed, outcomes, tracer,
                       {"layer_shares": shares, "metrics": values})
    notes["trace file"] = str(path.relative_to(ROOT))
    for rid, o in enumerate(outcomes):
        if o.request.argv in BASELINES and o.request.argv not in [
                p.request.argv for p in outcomes[:rid]]:
            totals: dict[str, float] = {}
            for name, start, end, _, span_rid in tracer.spans:
                if span_rid == rid and name != "cli.main":
                    totals[name] = totals.get(name, 0.0) + end - start
            notes[f"baseline {' '.join(o.request.argv)}"] = (
                f"{o.latency_s:.3f} s: " + ", ".join(f"{k} {v:.3f}" for k, v in totals.items()))
    notes.update({f"share {k}": f"{v:.1%}" for k, v in shares.items()})
    return warm + plain + outcomes, metrics, notes


def report(workload: str, outcomes: list[Outcome], metrics: dict, notes: dict,
           trace: bool) -> None:
    failed = [o for o in outcomes if o.error is not None]
    print(f"== {workload} ({'traced, per layer' if trace else 'end to end'})")
    for name, m in metrics.items():
        line = f"  {name:36s} {m['value']:>14.6g} {m['unit']}"
        if trace:
            line += f"   [{PER_LAYER[name][2]}]"
        elif name in notes:
            line += f"   ({notes[name]})"
        print(line)
    print(f"  {'error_rate':36s} {len(failed) / len(outcomes):>14.6g}"
          f"   ({len(failed)} failed of {len(outcomes)} attempted)")
    for key, text in notes.items():
        if key not in metrics:
            print(f"  {key}: {text}")
    for o in failed:
        print(f"  FAILED {' '.join(o.request.argv)}: {o.error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = run_traced if args.trace else run_end_to_end
    attempted = failed = 0
    all_metrics: dict = {}
    try:
        for name in names:
            outcomes, metrics, notes = run(name, args.seed, args.seconds)
            report(name, outcomes, metrics, notes, bool(args.trace))
            attempted += len(outcomes)
            failed += sum(o.error is not None for o in outcomes)
            if len(names) == 1:
                all_metrics = metrics
            else:
                all_metrics.update({f"{name}/{k}": v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
