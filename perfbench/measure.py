"""Spawn CLI invocations, parse their envelopes strictly and time whole jobs.

One invocation is one child process ``python -m cpl_kit.cli ...``. Its wall
time runs from spawn to exit; CPU time and peak RSS come from the child's
own rusage (``os.wait4``). A job is a workload's fixed list of invocations,
run once in order; jobs run one at a time in a closed loop.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path


class EnvelopeError(ValueError):
    """Output that is not a strict, well-formed cpl-kit JSON envelope."""


def _reject_constant(name: str):
    raise EnvelopeError(f"non-strict JSON constant {name}")


def parse_envelope(text: str) -> dict:
    """Parse one envelope; bare ``NaN``/``Infinity`` and missing parts fail."""
    try:
        env = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise EnvelopeError(f"invalid JSON: {exc}") from None
    if not isinstance(env, dict):
        raise EnvelopeError("envelope is not an object")
    manifest, result = env.get("manifest"), env.get("result")
    if not isinstance(manifest, dict) or not isinstance(result, dict):
        raise EnvelopeError("envelope lacks a manifest or result object")
    wall = manifest.get("wall_time_s")
    if isinstance(wall, bool) or not isinstance(wall, (int, float)) \
            or not math.isfinite(wall) or wall < 0:
        raise EnvelopeError(f"manifest.wall_time_s is not a finite time: {wall!r}")
    return env


@dataclass
class Invocation:
    """Outcome of one child process. ``error`` is None when it succeeded."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    envelope: dict | None
    error: str | None = None

    @property
    def setup_s(self) -> float:
        """Process wall time outside the envelope's own ``wall_time_s``."""
        inner = self.envelope["manifest"]["wall_time_s"] if self.envelope else 0.0
        return self.wall_s - inner


@dataclass
class Job:
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(inv.error is not None for inv in self.invocations)

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)


def cli_env(src: Path) -> dict:
    """Child environment: the checkout's sources first, no ambient seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("CPL_KIT_SEED", None)
    return env


def run_invocation(cmd: list[str], env: dict, scratch: Path) -> Invocation:
    """Run ``cmd`` to completion and parse its stdout as an envelope."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env) as proc:
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # leaving the block reaps it
                raise
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip()
    inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, None)
    if proc.returncode != 0:
        inv.error = f"exit {proc.returncode}: {stderr[-300:]}"
        return inv
    try:
        inv.envelope = parse_envelope(out.decode("utf-8"))
    except (EnvelopeError, UnicodeDecodeError) as exc:
        inv.error = f"bad envelope: {exc}"
    return inv


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cpl_kit.cli", *args]


def closed_loop(run_job, seconds: float) -> list:
    """Run ``run_job(i)`` back to back for at most ``seconds``.

    A job is started only if, at the mean job time so far, it would end in
    time; the first job always runs.
    """
    jobs = []
    started = time.perf_counter()
    while True:
        jobs.append(run_job(len(jobs)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(jobs) > seconds:
            return jobs


def end_to_end_metrics(jobs: list[Job]) -> dict:
    """The five end-to-end metrics over a run's jobs, each with its unit."""
    attempted = sum(len(j.invocations) for j in jobs)
    failed = sum(j.failed for j in jobs)
    return {
        "job_s": (statistics.median(j.wall_s for j in jobs), "s"),
        "cpu_s": (statistics.median(sum(i.cpu_s for i in j.invocations) for j in jobs), "s"),
        "peak_rss_mb": (statistics.median(max(i.maxrss_mb for i in j.invocations)
                                          for j in jobs), "MiB"),
        "setup_s": (statistics.median(sum(i.setup_s for i in j.invocations) for j in jobs), "s"),
        "failed_share": (failed / attempted, "ratio"),
    }
