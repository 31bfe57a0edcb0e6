"""Report rows and ``ci``/``cv`` output match the committed goldens bit for bit.

``tests/golden/regen.py`` holds the matrix and regenerates the goldens; see
its docstring for when that is allowed.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).with_name("golden")


def test_rows_and_cli_output_match_the_goldens():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(GOLDEN_DIR / "regen.py"), "--print"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    expected = (GOLDEN_DIR / "golden.txt").read_text().splitlines()
    actual = run.stdout.splitlines()
    section = None
    for i, (want, got) in enumerate(zip(expected, actual), start=1):
        if not want.startswith("  "):
            section = want.split(":", 1)[0]
        assert got == want, f"golden line {i} ({section}) differs:\n  expected {want}\n  got      {got}"
    assert len(actual) == len(expected), f"{len(actual)} lines against {len(expected)} golden lines"
