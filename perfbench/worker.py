"""One pass of a workload, in a fresh interpreter.

Set-up (interpreter start, ``import graphcat``, drafting and validating
the inputs, writing the CLI input files) is timed as process CPU time up
to the first job.  Each job is then timed with ``time.process_time``;
its answer digest is computed outside the timed region and checked
against ``references.json``.  With ``--trace`` the per-layer wrappers
are installed after set-up and removed after the last job.

On a shared VM the CPU time of fixed work drifts by a factor of two
within minutes, as neighbours load the host.  So a fixed calibration
kernel runs between jobs, and every CPU time is also reported at the
reference speed: scaled by ``CALIBRATION_REF_S`` over the kernel's CPU
time around it.  Both the measured and the scaled times are reported.

Prints one JSON object on its last stdout line.  ``run.py`` starts this
script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
import traceback

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
# CPU seconds of one calibration_kernel() at the reference speed
CALIBRATION_REF_S = 0.0015


def calibration_kernel():
    """Fixed interpreter-bound work like the library's inner loops: dict
    updates on tuple keys, string formatting, a sort of tuples."""
    counts, items = {}, []
    for i in range(2000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        items.append((str(i), key))
    items.sort()
    return len(counts) + len(items)


def calibrate():
    """CPU seconds of one calibration kernel run."""
    start = time.process_time()
    calibration_kernel()
    return time.process_time() - start


def load_references(name):
    try:
        with open(REFERENCES) as fh:
            return json.load(fh).get(name, {})
    except FileNotFoundError:
        return {}


def run_jobs(workload, jobs, references, tracer=None):
    """Run every job, a calibration kernel before and after each.

    Returns per-job rows and the totals of measured CPU seconds, CPU
    seconds at the reference speed, and wall seconds.
    """
    rows = []
    cpu_total = ref_total = wall_total = 0.0
    before = calibrate()
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            problems = []
            answer = None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                answer, problems = workload.run(job)
            except Exception:  # a job that raises is a failed job, not a crash
                problems = ["raised: " + traceback.format_exc(limit=3)]
            c1, w1 = time.process_time(), time.perf_counter()
            after = calibrate()
            ref = (c1 - c0) * CALIBRATION_REF_S / ((before + after) / 2)
            before = after
            cpu_total += c1 - c0
            ref_total += ref
            wall_total += w1 - w0
            digest = None
            if answer is not None:
                digest = workloads.digest(workload.encode(job, answer))
                want = references.get(job["key"])
                if want is None:
                    problems.append("no reference digest for this entry")
                elif digest != want:
                    problems.append("answer digest differs from the reference")
            rows.append({"key": job["key"], "cpu_ms": (c1 - c0) * 1000.0,
                         "ref_ms": ref * 1000.0, "digest": digest,
                         "problems": problems})
    finally:
        if tracer is not None:
            tracer.remove()
    return rows, cpu_total, ref_total, wall_total


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    catalogue = workload.catalogue()
    jobs = workload.jobs(args.seed, catalogue, args.workdir)
    references = load_references(workload.name)
    setup_s = time.process_time()
    speed = CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(5))

    tracer = tracing.Tracer(namespaces=[workloads]) if args.trace else None
    rows, cpu_s, ref_s, wall_s = run_jobs(workload, jobs, references, tracer)
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * speed,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "wall_s": wall_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": rows,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(os.path.join(args.workdir, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
