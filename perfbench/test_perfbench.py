"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def job_list(name, seed, workdir):
    """A printable fingerprint of a seed's job list, CLI files included."""
    workload = workloads.WORKLOADS[name]
    jobs = workload.jobs(seed, workload.catalogue(), str(workdir))
    fingerprint = []
    for job in jobs:
        item = {k: v for k, v in job.items() if k != "paths"}
        for path in sorted(job.get("paths", {}).values()):
            if os.path.exists(path):
                with open(path) as fh:
                    item[os.path.basename(path)] = fh.read()
        fingerprint.append(repr(sorted(item.items())))
    return fingerprint


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_job_list(name, tmp_path):
    assert job_list(name, 7, tmp_path / "a") == job_list(name, 7, tmp_path / "b")


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_different_job_list(name, tmp_path):
    first = job_list(name, 7, tmp_path / "a")
    second = job_list(name, 8, tmp_path / "b")
    assert len(first) == len(second)
    assert first != second


@pytest.fixture(autouse=True)
def workdirs(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()


def first_jobs(name, workdir, count=4):
    workload = workloads.WORKLOADS[name]
    return workload, workload.jobs(3, workload.catalogue(), str(workdir))[:count]


def test_perturbed_answer_counts_as_failed(tmp_path, monkeypatch):
    workload, jobs = first_jobs("hom_enum", tmp_path, count=40)
    references = worker.load_references("hom_enum")
    original = workload.run

    def perturbed(job):
        (maps, maps2, canon), problems = original(job)
        return (maps[1:], maps2, canon), problems

    rows = worker.run_jobs(workload, jobs, references)[0]
    assert not any(row["problems"] for row in rows)
    monkeypatch.setattr(workload, "run", perturbed)
    bad_rows = worker.run_jobs(workload, jobs, references)[0]
    changed = [bad for good, bad in zip(rows, bad_rows) if good["digest"] != bad["digest"]]
    assert changed, "no job with a non-empty hom-set among the first jobs"
    assert all(bad["problems"] for bad in changed)
    attempted, failed = run.count_failures([{"jobs": bad_rows}], [])
    assert attempted == len(jobs)
    assert failed == len(changed) > 0


def test_traced_digest_mismatch_counts_as_failed():
    plain = {"jobs": [{"digest": "a", "problems": []}, {"digest": "b", "problems": []}]}
    traced = {"jobs": [{"digest": "a", "problems": []}, {"digest": "c", "problems": []}]}
    assert run.count_failures([plain], [traced]) == (4, 1)


@pytest.mark.parametrize("name", NAMES)
def test_trace_wrappers_leave_answers_unchanged(name, tmp_path):
    import graphcat.graphical
    import graphcat.segal

    workload, jobs = first_jobs(name, tmp_path, count=3)
    references = worker.load_references(name)
    originals = (graphcat.segal.hom_set, graphcat.graphical.hom_set, workloads.hom_set,
                 graphcat.segal.ExtractedProperad.evaluate)
    plain = worker.run_jobs(workload, jobs, references)[0]
    tracer = tracing.Tracer(namespaces=[workloads])
    traced = worker.run_jobs(workload, jobs, references, tracer)[0]
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
    assert not any(r["problems"] for r in plain + traced)
    assert tracer.spans, "the traced pass recorded no spans"
    assert (graphcat.segal.hom_set, graphcat.graphical.hom_set, workloads.hom_set,
            graphcat.segal.ExtractedProperad.evaluate) == originals
    summary = tracer.summary()
    assert set(summary) == set(tracing.metric_names()) - set(tracing.DIAGNOSTICS)


def test_metric_names_match_the_benchmark_file():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == tracing.metric_names()
    assert len(tracing.metric_names()) == 87
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".scratch", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom_enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
