import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"

# the sha256 of each demo's stdout; a change to the library that keeps its
# outputs keeps these
STDOUT_SHA256 = {
    "01_graphs_and_subgraphs.py": "c8424860824918c4157e0ed0f3ef360f7b34ab63325aaa17914edb098e97cc78",
    "02_level_graphs.py": "847e990bc96e5de7baa1ea5591b44e101acce57bb490b20a68cfef6f23d4fd8b",
    "03_graphical_maps.py": "a3d443ad9b542a41c56e5ad97c50018a0b5a2ec70c626a1fc920531378f46044",
    "04_properad_operads.py": "f87ddbb8c7b696533a085db5fd45fa5e701a1ee6bb1196c7242701a31ccc3ea2",
    "05_nerve_theorem.py": "f9a79c31413f96124612ab78ee02713f2bf2adeee3e56f53c31cd79bf4ce196c",
}


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=240
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name]
