"""Tests of the benchmark itself: metric names and units, strict envelope
parsing, failure accounting, trace attribution and result checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import math
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
from measure import (EnvelopeError, Invocation, Job, end_to_end_metrics, parse_envelope,
                     run_invocation)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOOD = {"manifest": {"wall_time_s": 0.5}, "units": {}, "result": {"leakage_nats": 1.0}}


def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _echo(text):
    return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r})"]


def test_end_to_end_metrics_carry_every_named_metric_and_unit():
    job = Job([Invocation(1.0, 0.9, 70.0, GOOD), Invocation(2.0, 1.5, 90.0, GOOD)])
    metrics = end_to_end_metrics([job])
    units = {name: unit for name, (_, unit) in metrics.items()}
    assert units == {**_spec_units("end_to_end"), "failed_share": "ratio"}
    assert metrics["job_s"][0] == 3.0
    assert metrics["cpu_s"][0] == 2.4
    assert metrics["peak_rss_mb"][0] == 90.0
    assert metrics["setup_s"][0] == pytest.approx(2.0)


def test_layer_metrics_carry_every_named_metric_and_unit():
    spans = [layers.Span("cli.main", None, None, False, 0.0, 1.0)]
    metrics = layers.summarize([layers.job_layers(spans, 0)], [1.0], [0.9])
    assert {name: unit for name, (_, unit) in metrics.items()} == _spec_units("per_layer")
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.1)


@pytest.mark.parametrize("text", [
    '{"manifest": {"wall_time_s": NaN}, "result": {}}',
    '{"manifest": {"wall_time_s": 0.1}, "result": {"leakage_nats": Infinity}}',
    '{"manifest": {"wall_time_s": 0.1}, "result": {"p": -Infinity}}',
    '{"manifest": {"wall_time_s": 0.1}, "result": {',
    '{"manifest": {}, "result": {}}',
    '[1, 2]',
])
def test_non_strict_or_incomplete_envelopes_are_rejected(text):
    with pytest.raises(EnvelopeError):
        parse_envelope(text)


def test_string_inf_is_a_legal_envelope_value():
    env = parse_envelope('{"manifest": {"wall_time_s": 0.1}, "result": {"leakage_nats": "inf"}}')
    assert env["result"]["leakage_nats"] == "inf"


def test_corrupted_envelope_counts_toward_failed_share(tmp_path):
    good = run_invocation(_echo(json.dumps(GOOD)), {}, tmp_path)
    corrupt = run_invocation(_echo(json.dumps(GOOD).replace("1.0", "NaN")), {}, tmp_path)
    crashed = run_invocation([sys.executable, "-c", "raise SystemExit(2)"], {}, tmp_path)
    assert good.error is None and good.envelope == GOOD
    assert "NaN" in corrupt.error
    assert crashed.error.startswith("exit 2")
    metrics = end_to_end_metrics([Job([good, corrupt]), Job([crashed, good])])
    assert metrics["failed_share"][0] == 0.5
    assert good.maxrss_mb > 0 and good.wall_s > 0


def test_pool_spans_adopt_the_submitting_span_and_share_its_wall_time():
    tracer = layers.Tracer()
    inner = tracer._wrap("statistical.sup_ratio_leakage", lambda _: time.sleep(0.02))

    def surrogates():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(6)))

    outer = tracer._wrap("statistical.statistical_cpl", surrogates)
    with tracer.installed():
        started = time.perf_counter()
        outer()
        wall = time.perf_counter() - started
    spans = tracer.spans
    assert [s.name for s in spans].count("statistical.sup_ratio_leakage") == 6
    assert all(s.parent == 0 and s.pooled for s in spans[1:])
    total, own = layers.attribute(spans)
    assert sum(own) == pytest.approx(total[0])
    assert total[0] <= wall
    assert all(x >= -1e-12 for x in own)
    # Two workers: the six 20 ms sleeps cover about 60 ms, not 120 ms.
    assert sum(total[1:]) < 0.1


def test_installed_tracer_restores_every_binding():
    import cpl_kit
    from cpl_kit import calibration

    bound_module = sys.modules["cpl_kit.cpl_bound"]
    before = (cpl_kit.cpl_bound, calibration.cpl_bound, ThreadPoolExecutor.submit)
    tracer = layers.Tracer()
    with tracer.installed():
        assert calibration.cpl_bound is not before[1]
        assert cpl_kit.cpl_bound is calibration.cpl_bound
    assert (cpl_kit.cpl_bound, calibration.cpl_bound, ThreadPoolExecutor.submit) == before
    assert bound_module.cpl_bound is before[0]


def test_deleted_traced_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "NAMED", layers.NAMED + ("statistical.gone",))
    tracer = layers.Tracer()
    assert tracer.absent == ["statistical.gone"]
    metrics = layers.job_layers([], 0)
    assert metrics["statistical.sup_ratio_leakage.calls"][0] == 0


def test_traced_cli_run_splits_layers_within_wall_time(tmp_path):
    from cpl_kit import cli
    from cpl_kit.data_model import write_csv
    from cpl_kit.fixtures import maxleak_pair

    from run import _in_process

    data = tmp_path / "pair.csv"
    write_csv(maxleak_pair(n=2000, seed=1), data)
    tracer = layers.Tracer()
    assert tracer.absent == []
    argv = ["estimate", "--data", str(data), "--mechanism", "grr", "--epsilon", "1",
            "--target", "0", "--neighbors", "1", "--r", "2", "--surrogates", "20", "--seed", "3"]
    with tracer.installed():
        inv = _in_process(cli, argv)
    assert inv.error is None
    metrics = layers.job_layers(tracer.spans, 20)
    assert metrics["statistical.sup_ratio_leakage.calls"][0] == 21
    assert metrics["cpl_bound.cpl_bound.calls"][0] == 0
    assert metrics["mechanisms.rows"][0] == 2 * 4000
    assert 0 < metrics["layer.total_s"][0] <= inv.wall_s


def test_checks_use_stream_free_references(tmp_path):
    from cpl_kit.data_model import write_csv
    from cpl_kit.fixtures import maxleak_pair, weak_ten

    from workloads import CalibrateChecker, EstimatePairChecker

    pair = tmp_path / "pair.csv"
    write_csv(maxleak_pair(n=20_000, seed=1), pair)
    checker = EstimatePairChecker(pair, 1.0, 5)
    assert 0.9 < checker.reference < 1.1 and 0 < checker.tol < 0.2
    ok = {"leakage_nats": checker.reference, "significant": True}
    assert checker.check_result(0, ok) == []
    assert checker.check_result(0, {**ok, "leakage_nats": checker.reference + 2 * checker.tol})
    assert checker.check_result(0, {**ok, "significant": False})

    weak = tmp_path / "weak.csv"
    write_csv(weak_ten(n=3000, seed=1, n_attrs=4), weak)
    cal = CalibrateChecker(weak, 3.0, 0.01, ("bound", "exact-grr"))
    for index, engine in enumerate(cal.engines):
        ref = cal.bisection[engine]
        assert cal.worst_tpl(ref, engine) <= 3.0 + 1e-9 < cal.worst_tpl(ref + 1e-6, engine)
        assert cal.check_result(index, {"epsilon_star": ref - 0.005}) == []
        assert cal.check_result(index, {"epsilon_star": ref - 0.02})
        assert cal.check_result(index, {"epsilon_star": ref + 0.01})
        assert cal.check_result(index, {"epsilon_star": math.nan})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate_pair",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate_pair",
                           "--seed", "2", "--seconds", "1", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _spec_units(section)
    report = json.loads(lines[-2])
    assert report["environment"]["seed"] == 2
    if trace == "0":
        assert report["metrics"]["failed_share"] == {"value": 0.0, "unit": "ratio"}
