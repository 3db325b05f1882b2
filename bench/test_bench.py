"""Self-tests of the benchmark: generators, span arithmetic, tail rule, checks.

    python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import run
from checks import check_response
from spans import self_times, summarize
from workloads import (DIGITSET_STRATA, VERIFY_STRATA, WARMUP, WORKLOADS, Request,
                       bruteforce_states, cli_small, p_param)

COUNT_METRICS = ("exactmath.matmul_calls", "exactmath.matmul_mults",
                 "exactmath.max_num_bits", "exactmath.max_den_bits",
                 "eulerian.v_closed_calls", "carries.states_total",
                 "cli.output_bytes")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    gen = WORKLOADS[name]
    assert gen(7) == gen(7)
    assert [r.params for r in gen(7)] == [r.params for r in gen(7)]
    assert gen(7) != gen(8)


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
             ["d", 2.0, 3.0, 1, 0], ["c", 5.0, 6.0, 0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}


def test_spans_nest_and_self_times_are_non_negative():
    outcomes, tracer = run.traced_loop(cli_small(3), 0)
    assert all(o.error is None for o in run.check_all(outcomes))
    spans = tracer.spans
    assert spans and not tracer.missing
    for name, start, end, parent, rid in spans:
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == rid
    assert min(self_times(spans)) >= -1e-9
    # Wrappers are removed again after the run.
    cli = run.import_cli()
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("n, n_min, value, q, beyond", [
    (15, 15, 15, 100.0, 0),    # too few requests for any percentile: the maximum
    (20, 20, 10, 50.0, 10),
    (30, 20, 15, 50.0, 15),    # more requests than the minimum: same percentile
    (39, 39, 20, 50.0, 19),
    (40, 40, 30, 75.0, 10),
    (100, 100, 90, 90.0, 10),
    (144, 108, 130, 90.0, 14),
    (216, 108, 195, 90.0, 21),
    (1000, 1000, 990, 99.0, 10),
    (10000, 10000, 9990, 99.9, 10),
])
def test_tail_latency_rule(n, n_min, value, q, beyond):
    sample = [float(x) for x in range(n, 0, -1)]
    assert run.tail_latency(sample, n_min) == (value, q, beyond)


def test_per_request_medians_follow_the_cycle():
    # Three cycles of requests a, b, c; one burst in the second cycle.
    lat = [1.0, 2.0, 3.0, 1.1, 9.0, 3.2, 0.9, 2.1, 3.1]
    assert run.per_request_medians(lat, 3) == [1.0, 2.1, 3.1]
    # A run cut short inside its first cycle has medians for what it served.
    assert run.per_request_medians([1.0, 2.0], 3) == [1.0, 2.0]


def test_fixed_systems_are_as_documented():
    kinds = [p_param(b, d, n, neg) for n, neg, b, d in VERIFY_STRATA]
    assert all(p.numerator >= 12 and (p.denominator == 1 or 2 <= p.denominator <= 6)
               for p in kinds)
    assert {p.denominator == 1 for p in kinds} == {True, False}
    # A mirrored digit set reaches as many carries, so mirroring keeps m.
    for base, n, digits in DIGITSET_STRATA:
        m = len(bruteforce_states(base, list(digits), n))
        assert 8 <= m <= 14
        assert len(bruteforce_states(base, [-x for x in digits], n)) == m


def _respond(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _variants(req: Request):
    for fmt in ("json", "csv", "pretty"):
        argv = list(req.argv)
        if fmt != "json":
            argv += ["--format", fmt]
        yield Request(req.command, tuple(argv), req.params, fmt)


def _json_edit(*path, value):
    """A change of one payload value of a JSON response."""
    def edit(text):
        doc = json.loads(text)
        obj = doc["payload"]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return json.dumps(doc, indent=2)
    return edit


def _text_edit(old, new):
    def edit(text):
        assert old in text, (old, text[:400])
        return text.replace(old, new, 1)
    return edit


# (request, change per format) -- each change makes a correct response state
# something false.
BAD = {
    "flipped verdict": (WARMUP[2], {
        "json": _json_edit("verdicts", "row_stochastic", value=False),
        "csv": _text_edit("row_stochastic=pass", "row_stochastic=FAIL"),
        "pretty": _text_edit("row_stochastic: pass", "row_stochastic: FAIL")}),
    "verified false": (WARMUP[2], {
        "json": _json_edit("verified", value=False),
        "csv": _text_edit("verified,pass", "verified,FAIL"),
        "pretty": _text_edit("verified: pass", "verified: FAIL")}),
    # base 3, n = 2: the first entry 1/3 becomes 4/9, so row 0 sums to
    # 1 + 1/b^n.
    "row sum 1 + 1/b^n": (WARMUP[1], {
        "json": _json_edit("matrix", 0, 0, value={"num": "4", "den": "9"}),
        "csv": _text_edit("matrix\n1/3,", "matrix\n4/9,"),
        "pretty": _text_edit("matrix:\n  1/3", "matrix:\n  4/9")}),
    "find-system p": (WARMUP[3], {
        "json": _json_edit("verified_p", value={"num": "7", "den": "3"}),
        "csv": _text_edit("verified_p,5/3", "verified_p,7/3"),
        "pretty": _text_edit("verified_p: 5/3", "verified_p: 7/3")}),
    "uniform-sum match": (WARMUP[5], {
        "json": _json_edit("match", value=False),
        "csv": _text_edit("match,pass", "match,FAIL"),
        "pretty": _text_edit("match: pass", "match: FAIL")}),
    "triangle row sum": (WARMUP[0], {
        "json": _json_edit("rows", 0, 0, value={"num": "2", "den": "1"}),
        "csv": _text_edit("rows\n1\n", "rows\n2\n"),
        "pretty": _text_edit("rows:\n  1\n", "rows:\n  2\n")}),
}


@pytest.mark.parametrize("case", list(BAD))
def test_checks_reject_fabricated_outputs(cli, case):
    base_req, changes = BAD[case]
    for req in _variants(base_req):
        code, out, err = _respond(cli, req.argv)
        assert check_response(req, code, out, err) is None, (req.argv, out)
        bad = changes[req.fmt](out)
        assert check_response(req, code, bad, err) is not None, (case, req.fmt)


def test_checks_reject_char_poly_and_simulation_defects(cli):
    req = WARMUP[1]
    code, out, err = _respond(cli, req.argv)
    doc = json.loads(out)
    doc["payload"]["char_poly_ascending"][-1] = {"num": "2", "den": "1"}
    assert "monic" in check_response(req, code, json.dumps(doc), err)

    req = WARMUP[4]
    code, out, err = _respond(cli, req.argv)
    assert check_response(req, code, out, err) is None
    doc = json.loads(out)
    counts = doc["payload"]["counts"]
    key = next(iter(counts))
    counts[key] += 1
    assert "sum" in check_response(req, code, json.dumps(doc), err)
    counts[key] -= 1
    counts["99"] = counts.pop(key)
    assert "outside" in check_response(req, code, json.dumps(doc), err)


def test_checks_reject_exit_codes_and_tracebacks(cli):
    req = WARMUP[2]
    code, out, err = _respond(cli, req.argv)
    assert check_response(req, 1, out, err) is not None
    assert check_response(req, code, out, "Traceback (most recent call last):\n  x\nE: y") is not None
    assert check_response(req, code, out[: len(out) // 2], err) is not None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    cycle = WORKLOADS[name](5)
    first = run.layer_metrics(*run.traced_loop(cycle, 0))
    second = run.layer_metrics(*run.traced_loop(cycle, 0))
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()}
