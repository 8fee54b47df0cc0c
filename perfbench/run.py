"""cpl-kit CLI benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload estimate_pair --seed 1 --seconds 10 --trace 0

Set-up (untimed) writes the fixtures with ``cpl-kit fixtures generate
--seed <seed>`` into a scratch directory of the checkout and builds each
workload's result references. ``--trace 0`` then runs jobs of CLI child
processes back to back for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` instead alternates untraced and traced in-process
jobs (``cli.main(argv)``) and reports the per-layer metrics. Every result is
checked. The second-to-last stdout line is a report (environment, all
metrics including ``failed_share``, tolerances, failures); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy

import layers
from measure import (EnvelopeError, Invocation, Job, cli_command, cli_env, closed_loop,
                     end_to_end_metrics, parse_envelope, run_invocation)

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text("utf-8"))


def job_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th job: distinct per job, fixed per run seed."""
    return seed * 1000 + index


def environment(root: Path, seed: int, fixture_rows: dict) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass  # no usable git; the source digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cpl_kit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "source_sha256": digest.hexdigest(), "seed": seed,
            "fixture_rows": fixture_rows}


def check_job(job: Job, checker) -> None:
    """Mark each successfully parsed invocation whose result is wrong."""
    for index, inv in enumerate(job.invocations):
        if inv.error is None:
            problems = checker.check_result(index, inv.envelope["result"])
            if problems:
                inv.error = "; ".join(problems)


def run_end_to_end(workload, fixture: Path, checker, seed, seconds, env, scratch):
    def run_job(i: int) -> Job:
        job = Job([run_invocation(cli_command(args), env, scratch)
                   for args in workload.invocations(fixture, job_seed(seed, i))])
        check_job(job, checker)
        return job

    jobs = closed_loop(run_job, seconds)
    return jobs, end_to_end_metrics(jobs), {}


def _in_process(cli, args: list[str]) -> Invocation:
    out = io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(args)
        if code != 0:
            error = f"exit {code}"
    except Exception as exc:  # a crash is a failed invocation, as a child's would be
        error = f"raised {exc!r}"
    inv = Invocation(time.perf_counter() - started, 0.0, 0.0, None, error)
    if error:
        return inv
    try:
        inv.envelope = parse_envelope(out.getvalue())
    except EnvelopeError as exc:
        inv.error = f"bad envelope: {exc}"
    return inv


def run_traced(workload, fixture: Path, checker, seed, seconds):
    from cpl_kit import cli

    tracer = layers.Tracer()
    per_job, untraced_s, traced_s, problems = [], [], [], []

    def run_pair(i: int) -> list[Job]:
        argvs = workload.invocations(fixture, job_seed(seed, i))
        plain = Job([_in_process(cli, args) for args in argvs])
        tracer.spans = []
        with tracer.installed():
            traced = Job([_in_process(cli, args) for args in argvs])
        metrics = layers.job_layers(tracer.spans, workload.surrogates)
        if metrics["layer.total_s"][0] > traced.wall_s:
            problems.append(f"job {i}: layer totals {metrics['layer.total_s'][0]:.6f} s exceed "
                            f"its wall time {traced.wall_s:.6f} s")
        for job in (plain, traced):
            check_job(job, checker)
        per_job.append(metrics)
        untraced_s.append(plain.wall_s)
        traced_s.append(traced.wall_s)
        return [plain, traced]

    jobs = [job for pair in closed_loop(run_pair, seconds) for job in pair]
    metrics = layers.summarize(per_job, traced_s, untraced_s)
    return jobs, metrics, {"absent_spans": tracer.absent, "trace_problems": problems}


def bench(workload, root: Path, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (report, result)."""
    env = cli_env(root / "src")
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        fx = scratch / "fixtures"
        made = run_invocation(cli_command(["fixtures", "generate", "--out-dir", str(fx),
                                           "--seed", str(seed)]), env, scratch)
        if made.error:
            raise RuntimeError(f"fixture generation failed: {made.error}")
        rows = {k: v["rows"] for k, v in made.envelope["result"]["files"].items()}
        fixture = fx / f"{workload.fixture}.csv"
        checker = workload.checker(fixture)
        if trace:
            jobs, metrics, extra = run_traced(workload, fixture, checker, seed, seconds)
        else:
            jobs, metrics, extra = run_end_to_end(workload, fixture, checker, seed, seconds,
                                                  env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it

    invocations = [inv for job in jobs for inv in job.invocations]
    errors = [inv.error for inv in invocations if inv.error]
    correct = not errors and not extra.get("trace_problems")
    report = {
        "workload": workload.name, "why": workload.why, "trace": int(trace), "jobs": len(jobs),
        "job_wall_s": [round(job.wall_s, 4) for job in jobs],
        "environment": environment(root, seed, rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tolerances": checker.tolerances, "errors": errors[:5], **extra,
    }
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    result = {
        "correct": correct, "attempted": len(invocations), "failed": len(errors),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "cpl_kit" / "cli.py").is_file():
        print(f"perfbench: no cpl_kit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cpl_kit
    if Path(cpl_kit.__file__).resolve().parent != (src / "cpl_kit").resolve():
        print(f"perfbench: imported cpl_kit from {cpl_kit.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    results = {}
    for name in names:
        report, result = bench(WORKLOADS[name], root, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report, sort_keys=True), flush=True)
        for key, metric in report["metrics"].items():
            print(f"# {name:15s} {key:45s} {metric['value']:>14.6f} {metric['unit']}",
                  file=sys.stderr)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
