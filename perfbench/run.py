"""graphcat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory.  A run repeats passes of the seeded job list, each in
a fresh interpreter (``-S``, fixed PYTHONHASHSEED, GRAPHCAT_CORPUS_DIR
unset, one thread, temporary files under ``perfbench/.scratch``), as
long as another pass fits in ``--seconds``, and at least three times
(twice plain and twice traced with ``--trace 1``).

With ``--trace 0`` it reports the end-to-end metrics: medians over
passes of CPU time and set-up time and peak RSS, and per-job CPU
latency percentiles over every job of every pass.  CPU times are given
at the reference speed of ``worker.calibration_kernel`` (see
``worker.py``); the figures as measured are printed alongside.  With ``--trace 1``
it alternates plain and traced passes and reports the per-layer
metrics of the traced ones.  Every job's answer is checked; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(HERE, ".scratch")
WORKLOADS = ("nerve_roundtrip", "hom_enum", "operad_laws", "level_maps")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170  # a run never lasts longer than this


class PassError(RuntimeError):
    pass


def child_env(workdir):
    """The parent's environment, pinned: bytecode is cached next to the
    sources, so only a checkout's first pass compiles them."""
    dropped = ("GRAPHCAT_CORPUS_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
        TMPDIR=workdir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_pass(workload, seed, workdir, traced, timeout):
    # -S: no site hooks, so start-up cost does not depend on site-packages
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workdir), capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_sha():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of ``values``, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_failures(plain, traced):
    """Failed jobs over every pass; a traced job also fails when its
    digest differs from the same job's digest in the first plain pass."""
    failed = sum(1 for p in plain + traced for row in p["jobs"] if row["problems"])
    baseline = [row["digest"] for row in plain[0]["jobs"]]
    for p in traced:
        for want, row in zip(baseline, p["jobs"]):
            if row["digest"] != want and not row["problems"]:
                failed += 1
    attempted = sum(len(p["jobs"]) for p in plain + traced)
    return attempted, failed


def first_problems(passes, limit=5):
    out = []
    for p in passes:
        for row in p["jobs"]:
            for problem in row["problems"]:
                out.append(f"{row['key']}: {problem}")
    return out[:limit]


def end_to_end(plain):
    """The end-to-end metrics at the reference speed, and a note with the
    sample count and the same figures as measured."""
    job_ms = [row["ref_ms"] for p in plain for row in p["jobs"]]
    p90 = percentile(job_ms, 90)
    metrics = {
        "cpu_s": (statistics.median(p["ref_s"] for p in plain), "s"),
        "job_p50_ms": (percentile(job_ms, 50), "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(p["setup_ref_s"] for p in plain), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kib"] for p in plain) / 1024.0, "MiB"),
    }
    beyond = sum(1 for x in job_ms if x > p90)
    measured = [row["cpu_ms"] for p in plain for row in p["jobs"]]
    note = (
        f"{len(job_ms)} job samples, {beyond} beyond p90; as measured: "
        f"cpu_s {statistics.median(p['cpu_s'] for p in plain):.4g} s, "
        f"job_p50_ms {percentile(measured, 50):.4g} ms, "
        f"job_p90_ms {percentile(measured, 90):.4g} ms, "
        f"setup_s {statistics.median(p['setup_s'] for p in plain):.4g} s"
    )
    return metrics, note


def per_layer(plain, traced):
    metrics = {}
    for name in tracing.metric_names():
        if name in tracing.DIAGNOSTICS:
            continue
        unit = "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "1"
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    cpu = statistics.median(p["cpu_s"] for p in plain)
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics["run.wall_s"] = (wall, "s")
    metrics["run.cpu_share"] = (cpu / wall, "1")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["ref_s"] for p in traced)
        / statistics.median(p["ref_s"] for p in plain), "1")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphcat", "__init__.py")):
        print(f"error: no graphcat sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    try:
        while True:
            elapsed = time.perf_counter() - start
            done = len(plain) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
            done = done and len(traced) >= (MIN_TRACED_PASSES if args.trace else 0)
            # stop when the next pass would end after --seconds
            if done and elapsed + longest > min(args.seconds, RUN_LIMIT_S):
                break
            if elapsed + longest > RUN_LIMIT_S:
                raise PassError(f"passes take {longest:.0f} s; too slow for one run")
            want_trace = bool(args.trace) and len(traced) < len(plain)
            pass_start = time.perf_counter()
            result = run_pass(args.workload, args.seed, workdir, want_trace,
                              RUN_LIMIT_S - elapsed)
            longest = max(longest, time.perf_counter() - pass_start)
            (traced if want_trace else plain).append(result)
        if traced:
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(SCRATCH, f"spans-{args.workload}.json"))
    except (PassError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failures(plain, traced)
    if args.trace:
        metrics, note = per_layer(plain, traced), ""
    else:
        metrics, note = end_to_end(plain)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced passes of {len(plain[0]['jobs'])} jobs; {note}")
    wall = statistics.median(p["wall_s"] for p in plain)
    print(f"env python {platform.python_version()} nproc {os.cpu_count()} "
          f"git {git_sha()} run.wall_s {wall:.4g} "
          f"run.cpu_share {statistics.median(p['cpu_s'] for p in plain) / wall:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} jobs)")
    for problem in first_problems(plain + traced):
        print(f"failed job {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
