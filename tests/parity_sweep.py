"""Every output of the CLI for every variant and dtype, for a byte-for-byte
comparison of two checkouts.

    python tests/parity_sweep.py OUT_DIR

Runs this checkout's cadts (its own ``src/``) in process, on three small
fixed-seed entities (``make_conflict_dataset``, test series of several
score chunks): two of 6 metrics, and one of 17, whose towers an unrecorded
forward runs in three blocks (``model.TOWER_BLOCK``). For each of the 7 variants in float32 and float64 it runs
``train``, ``score``, ``eval`` and ``report`` into ``OUT_DIR/<variant>-<dtype>/``:
per entity the checkpoint, ``history.tsv``, scores, metrics and the
single-file ``eval --threshold`` metrics at each of ``THRESHOLDS``
(``metrics_fixed_<threshold>.tsv``), plus the report. The generated inputs
go to ``OUT_DIR/data``. To compare two checkouts, run each one's copy of
this script (or this script copied into the other checkout, as it puts its
own checkout's ``src/`` first); a change keeps every output when

    diff -r OUT_PARENT OUT_CHANGE

prints nothing. Two runs of one checkout into two directories must agree
the same way. Not collected by pytest; it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cadts.cli import main  # noqa: E402
from cadts.model import VARIANTS  # noqa: E402

from _synth import make_conflict_dataset  # noqa: E402

# (train rows, test rows, seed, metrics): 402, 542 and 402 test windows at
# l + h = 19; 17 metrics make three tower blocks, of 5, 6 and 6 metrics
ENTITIES = {"e1": (400, 420, 1, 6), "e2": (300, 560, 2, 6), "e3": (300, 420, 3, 17)}
# a threshold inside every variant's score range, and the all-negative one
THRESHOLDS = ("0.4", "inf")
CONFIG = ["experts=3", "kernels=4", "embed_dim=16", "tower_hidden=8", "batch=32", "max_epochs=2", "seed=7"]


def write_data(root: Path) -> None:
    for entity, (t_train, t_test, seed, metrics) in ENTITIES.items():
        train, test = make_conflict_dataset(t_train, t_test, n_metrics=metrics, seed=seed)
        (root / entity).mkdir(parents=True)
        np.savetxt(root / entity / "train.csv", train.values, fmt="%.17g", delimiter=",")
        np.savetxt(root / entity / "test.csv", test.values, fmt="%.17g", delimiter=",")
        np.savetxt(root / entity / "test_label.csv", test.labels, fmt="%d")


def cadts(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(list(argv))
    if rc != 0:
        raise SystemExit(f"cadts {' '.join(argv)}: exit {rc}")


def sweep(out: Path) -> None:
    data = out / "data"
    write_data(data)
    for variant in VARIANTS:
        for dtype in ("float32", "float64"):
            run = out / f"{variant}-{dtype}"
            settings = [arg for kv in CONFIG + [f"variant={variant}", f"dtype={dtype}"] for arg in ("--set", kv)]
            cadts("train", "--data-root", str(data), "--out", str(run), *settings)
            cadts("score", "--run-dir", str(run), "--data-root", str(data))
            cadts("eval", "--run-dir", str(run), "--data-root", str(data))
            cadts("report", "--run-dir", str(run), "--output", str(run / "report.tsv"))
            for entity in ENTITIES:
                for threshold in THRESHOLDS:
                    cadts("eval", "--scores", str(run / entity / "scores.txt"),
                          "--labels", str(data / entity / "test_label.csv"), "--threshold", threshold,
                          "--output", str(run / entity / f"metrics_fixed_{threshold}.tsv"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    target = Path(sys.argv[1])
    if target.exists() and any(target.iterdir()):
        raise SystemExit(f"{target}: not empty")
    sweep(target)
    print(f"{sum(1 for p in target.rglob('*') if p.is_file())} files in {target}")
