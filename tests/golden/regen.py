"""Golden outputs: Monte Carlo report rows and ``ci``/``cv`` runs, as text.

    python tests/golden/regen.py            # rewrite tests/golden/golden.txt
    python tests/golden/regen.py --print    # write the same text to stdout

The matrix is:

* ``run_experiment`` at reps = 6 and B = 200 on every ``configs/*.ini``, on
  ``bench/configs/regression_k8.ini`` and on the configs in ``CONFIGS``,
  one line per report row with every float as ``float.hex``;
* the runs of ``MULTI_BLOCK``, at reps and B that split each study into
  several blocks of replications, so that a fault in how blocks are
  scheduled or gathered moves a line;
* the ``ci`` and ``cv`` command lines in ``COMMANDS``, run in-process on CSVs
  written from fixed seeds: the exit code, stdout, stderr and the ``--output``
  JSON of each, line by line.

BLAS runs on one thread, so a last bit never depends on the machine's thread
count.  ``tests/test_golden.py`` runs ``--print`` in a subprocess and names
the first line that differs from the committed file.  A change that means to
move a draw or a last bit regenerates the file in the same change and says
which lines moved and why; regenerating is never a way to make a test pass.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import csv
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dpextrema.cli import main  # noqa: E402
from dpextrema.harness import load_config, run_experiment  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.txt")
REPS, B = 6, 200

#: Configs the matrix writes itself: the nuisance path with a cv token,
#: regression with every bootstrap variant, each at a finite and an infinite
#: budget, a cv token at an n that 5 folds do not divide, a k = 8
#: regression at n = 800 whose clipped releases rppb solves as released, and
#: plain regression with a cv token, whose 6 sets cross-validate as one block.
CONFIGS = {
    "partial_regression_cv.ini": """
        [experiment]
        model = partial_regression
        n = 1000
        k = 2
        beta = 0, 0
        gamma = 0.5, -0.5
        epsilon = 4, inf
        seed = 11
        [methods]
        ppb = 1/10, cv
        naive = private
    """,
    "regression_npb_rppb.ini": """
        [experiment]
        model = regression
        n = 800
        k = 2
        beta = 0, 0.2
        epsilon = 3, inf
        seed = 12
        [methods]
        ppb = 1/10
        npb = 1/10
        rppb = 1/10
        semi_naive = on
        naive = private
    """,
    "gaussian_cv_unequal_folds.ini": """
        [experiment]
        model = gaussian
        n = 803
        k = 2
        mu = 0, 0.1
        epsilon = 1.5
        bounds_half_width = 2.8
        seed = 13
        [methods]
        ppb = 1/10, cv
    """,
    "regression_k8_n800.ini": """
        [experiment]
        model = regression
        n = 800
        k = 8
        beta = zeros
        epsilon = 10
        seed = 1
        [methods]
        ppb = 1/10
        rppb = 1/10
        naive = private
    """,
    "regression_cv.ini": """
        [experiment]
        model = regression
        n = 800
        k = 2
        beta = 0, 0.2
        epsilon = 3, inf
        seed = 14
        [methods]
        ppb = 1/10, cv
        naive = private
    """,
}


#: config path below the repo root -> (reps, B) of a run in several blocks:
#: 2 blocks of 6 at k = 8, B = 1000, and 7 + 7 + 6 for the Gaussian k = 8.
MULTI_BLOCK = {
    "bench/configs/regression_k8.ini": (12, 1000),
    "configs/gaussian_k8.ini": (20, 1000),
}


def _write_csv(path: Path, header, rows) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.asarray(rows).tolist())
    return str(path)


def write_inputs(tmp: Path) -> dict[str, str]:
    """The seeded CSVs the command lines read; the 303-row ones split into
    unequal folds."""
    rng = np.random.default_rng(2024)
    gauss = rng.standard_normal((300, 2))
    wide = np.array([0.0, 0.3, 0.0, -0.2]) + rng.standard_normal((400, 4))
    X = rng.uniform(-1.0, 1.0, (400, 2))
    y = X @ np.array([0.0, 1.0]) + rng.standard_normal(400)
    # two interest columns, one nuisance column orthogonal to them, then y
    Z = rng.uniform(-1.0, 1.0, (2000, 2))
    w = rng.standard_normal(2000)
    w -= Z @ np.linalg.solve(Z.T @ Z, Z.T @ w)
    yz = Z @ np.array([0.0, 0.5]) + 0.8 * w + rng.standard_normal(2000)
    odd = np.random.default_rng(303)
    gauss_odd = odd.standard_normal((303, 2))
    X_odd = odd.uniform(-1.0, 1.0, (303, 2))
    y_odd = X_odd @ np.array([0.0, 1.0]) + odd.standard_normal(303)
    return {
        "gauss": _write_csv(tmp / "gauss.csv", ["x0", "x1"], gauss),
        "wide": _write_csv(tmp / "wide.csv", [f"x{j}" for j in range(4)], wide),
        "reg": _write_csv(tmp / "reg.csv", ["x0", "x1", "y"], np.column_stack([X, y])),
        "orth": _write_csv(tmp / "orth.csv", ["z0", "z1", "w0", "y"], np.column_stack([Z, w, yz])),
        "gauss_odd": _write_csv(tmp / "gauss_odd.csv", ["x0", "x1"], gauss_odd),
        "reg_odd": _write_csv(tmp / "reg_odd.csv", ["x0", "x1", "y"], np.column_stack([X_odd, y_odd])),
    }


_GAUSS = ["--bounds=-5:5", "--B", "200", "--b-inner", "60"]
_REG = ["--bounds=-1:1", "--y-bounds=-8:8", "--B", "200", "--b-inner", "60"]

#: name -> command line; ``{gauss}`` and the like name an input CSV.
COMMANDS = {
    "ci-gaussian": ["ci", "gaussian", "--input", "{gauss}", *_GAUSS, "--epsilon", "1.5", "--seed", "42"],
    "ci-gaussian-inf": ["ci", "gaussian", "--input", "{gauss}", *_GAUSS, "--epsilon", "inf", "--seed", "7"],
    "ci-gaussian-partial": [
        "ci", "gaussian", "--input", "{wide}", *_GAUSS, "--partial", "2", "--epsilon", "2", "--seed", "3",
    ],
    "ci-gaussian-cv": ["ci", "gaussian", "--input", "{gauss}", *_GAUSS, "--r", "cv", "--epsilon", "1.5", "--seed", "8"],
    "ci-gaussian-partial-cv-split": [
        "ci", "gaussian", "--input", "{wide}", *_GAUSS, "--partial", "3", "--r", "cv",
        "--split", "0.3,0.7", "--epsilon", "3", "--seed", "5",
    ],
    "ci-regression": ["ci", "regression", "--input", "{reg}", *_REG, "--epsilon", "1.5", "--seed", "1"],
    "ci-regression-inf": [
        "ci", "regression", "--input", "{reg}", *_REG, "--r", "0.5", "--epsilon", "inf", "--seed", "2",
    ],
    "ci-regression-partial": [
        "ci", "regression", "--input", "{orth}", *_REG, "--partial", "2", "--epsilon", "1.5", "--seed", "3",
    ],
    "ci-regression-cv-split": [
        "ci", "regression", "--input", "{reg}", *_REG, "--r", "cv", "--split", "0.3,0.3,0.4",
        "--epsilon", "12", "--seed", "4",
    ],
    "cv-gaussian": ["cv", "--input", "{gauss}", "--bounds=-5:5", "--b-inner", "60", "--epsilon", "1.5", "--seed", "9"],
    "cv-regression": [
        "cv", "--model", "regression", "--input", "{reg}", "--bounds=-1:1", "--y-bounds=-8:8", "--b-inner", "60",
        "--epsilon", "4", "--seed", "10",
    ],
    "ci-gaussian-cv-unequal-folds": [
        "ci", "gaussian", "--input", "{gauss_odd}", *_GAUSS, "--r", "cv", "--epsilon", "1.5", "--seed", "11",
    ],
    "cv-regression-unequal-folds": [
        "cv", "--model", "regression", "--input", "{reg_odd}", "--bounds=-1:1", "--y-bounds=-8:8",
        "--b-inner", "60", "--epsilon", "4", "--seed", "12",
    ],
    "ci-gaussian-wrong-split": [
        "ci", "gaussian", "--input", "{gauss}", *_GAUSS, "--split", "0.2,0.3,0.5", "--epsilon", "1.5", "--seed", "1",
    ],
}


def row_lines(tmp: Path) -> list[str]:
    paths = sorted((ROOT / "configs").glob("*.ini")) + [ROOT / "bench" / "configs" / "regression_k8.ini"]
    for name, text in CONFIGS.items():
        path = tmp / name
        path.write_text("\n".join(line.strip() for line in text.strip().splitlines()) + "\n")
        paths.append(path)
    runs = [(path.name, path, REPS, B) for path in paths]
    runs += [(f"{Path(name).name}@reps={reps}", ROOT / name, reps, b) for name, (reps, b) in MULTI_BLOCK.items()]
    lines = []
    for label, path, reps, b in runs:
        config = dataclasses.replace(load_config(path), reps=reps, B=b)
        for i, row in enumerate(run_experiment(config).rows):
            cells = (
                f"{f.name}={v.hex() if isinstance(v, float) else v}"
                for f in dataclasses.fields(row)
                if (v := getattr(row, f.name)) is not None
            )
            lines.append(f"row {label}[{i}]: " + " ".join(cells))
    return lines


def command_lines(tmp: Path) -> list[str]:
    inputs = write_inputs(tmp)
    lines = []
    for name, template in COMMANDS.items():
        output = tmp / f"{name}.json"
        args = [arg.format(**inputs) for arg in template] + ["--output", str(output)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        lines.append(f"cli {name}: exit {code}")
        streams = (
            ("stdout", out.getvalue()),
            ("stderr", err.getvalue()),
            ("json", output.read_text() if output.exists() else ""),
        )
        for stream, text in streams:
            lines += [f"  {stream}| {line}" for line in text.replace(str(tmp), "<tmp>").splitlines()]
    return lines


def golden_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return "\n".join(row_lines(Path(tmp)) + command_lines(Path(tmp))) + "\n"


if __name__ == "__main__":
    text = golden_text()
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
