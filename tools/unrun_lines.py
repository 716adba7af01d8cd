"""List the lines of ``src/graphcat`` that no test runs.

    python3 tools/unrun_lines.py

Runs the Tier-1 suite (``tests/``) and ``perfbench/`` with pytest in this
process under a ``sys.settrace`` line tracer, so no coverage package is
needed beyond the test dependencies.  A line is executable when the
compiler gives it an instruction; it is unrun when no traced frame
executes it, so code run only in a subprocess counts as unrun.  Hypothesis examples are
derandomized and string hashing is fixed (``PYTHONHASHSEED=0``, set by
re-running the script), so that two runs see the same lines.

Each line that stays unrun is listed in ``tools/unrun_lines.txt`` as
``file | line text | reason``, keyed by the stripped line text rather than
its number; a listed text excuses as many unrun lines of that file as it
has entries.  The check fails when the tests fail, an unrun line is not
listed, or a listed line now runs (it is stale), so the listing is always
the set of unrun lines.
"""

from __future__ import annotations

import collections
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "graphcat")
LISTING = os.path.join(ROOT, "tools", "unrun_lines.txt")


def executable_lines(path):
    """The line numbers of ``path`` that carry an instruction."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args):
    """Run pytest under the tracer; return (exit code, file -> lines run)."""
    prefix = SRC + os.sep
    hits = collections.defaultdict(set)
    local_for = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        local = local_for.get(code, 0)
        if local == 0:
            local = None
            if code.co_filename.startswith(prefix):
                seen = hits[code.co_filename]

                def local(frame, event, arg):
                    if event == "line":
                        seen.add(frame.f_lineno)
                    return local

            local_for[code] = local
        return local

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # subprocesses (the demos, ``python -m graphcat.cli``) import it too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    class Derandomize:
        """Fixes hypothesis examples before any test module is imported."""

        def pytest_configure(self, config):
            import hypothesis

            hypothesis.settings.register_profile("unrun-lines", derandomize=True)
            hypothesis.settings.load_profile("unrun-lines")

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args, plugins=[Derandomize()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def read_listing(path):
    """(file, line text) -> [reason, ...] from the listing file."""
    listed = collections.defaultdict(list)
    with open(path) as fh:
        for raw in fh:
            if not raw.strip() or raw.startswith("#"):
                continue
            name, text, reason = (part.strip() for part in raw.split(" | ", 2))
            listed[(name, text)].append(reason)
    return listed


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    code, hits = run_traced([
        "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
        os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench"),
    ])
    listed = read_listing(LISTING)
    unlisted, total = [], 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path) - hits[path]):
            total += 1
            stripped = text[line - 1].strip()
            reasons = listed.get((name, stripped))
            if reasons:
                reasons.pop()
            else:
                unlisted.append(f"{name}:{line}: {stripped}")
    stale = [f"{name} | {text}" for (name, text), left in listed.items() for _ in left]
    print(f"{total} unrun lines in src/graphcat, {len(unlisted)} not listed")
    for entry in unlisted:
        print(f"unlisted: {entry}")
    for entry in stale:
        print(f"stale: {entry}")
    if code != 0:
        print(f"the tests failed (pytest exit code {int(code)})")
    return 1 if code != 0 or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
