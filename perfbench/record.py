"""Re-record the reference answer digests in ``references.json``.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

Runs every catalogue entry of the named workloads (default: all) once
and stores the digest of its answer.  Run it only in a change that
alters an answer on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

import worker
import workloads


def record(name, workdir):
    workload = workloads.WORKLOADS[name]
    jobs = workload.prepare(random.Random(0), workload.catalogue(), workdir)
    rows = worker.run_jobs(workload, jobs, {})[0]
    out = {}
    for row in rows:
        problems = [p for p in row["problems"] if "reference" not in p]
        if problems:
            raise SystemExit(f"{name} {row['key']}: {problems}")
        out[row["key"]] = row["digest"]
    return out


def main(names):
    try:
        with open(worker.REFERENCES) as fh:
            references = json.load(fh)
    except FileNotFoundError:
        references = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(worker.REFERENCES)) as workdir:
        for name in names or sorted(workloads.WORKLOADS):
            references[name] = record(name, workdir)
            print(f"{name}: {len(references[name])} digests")
    with open(worker.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
