"""The cadts benchmark: three closed-loop batch workloads, one caller each.

    python3 perfbench/run.py --workload smd-train --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    smd-train  one SMD-shaped entity (28,479 x 38 sines), default config,
               a fixed epoch count, early stop off: in-process train_model
    smd-score  a checkpoint of the same shape scores a 28,479 x 38 test
               CSV, then best_f1 over raw, pa and kpa k=10/20/30
    fleet-cli  four labeled entities of uneven length through
               ``cadts train/score --jobs 2``, ``eval`` and ``report``

Inputs are generated from ``--seed`` by perfbench/synth.py; the program
sees only the generated CSVs and checkpoint. Each workload repeats its unit
of work (set-up, then the pipeline) until ``--seconds`` have passed, at
least twice, and reports medians over the repeats. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repeats
and prints the per-layer metrics, taken from spans the benchmark records
around the program's public functions (perfbench/tracer.py).

Every output check counts in ``attempted``/``failed``; the last line of
stdout is the JSON result, and the exit code is 1 when any check failed.
A full record (environment stamp, human-readable table, spans) is written
under ``.perfbench_out/``; perfbench/compare.py compares two sets of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
# smd-score scores and evaluates the loaded series this many times per
# set-up: set-up is as long as one pass, and more passes per run steady
# the medians
SCORE_PASSES = 3
# With --jobs 2 workers x 2 OpenBLAS threads on 2 cores, `cadts train` took
# 3.3 s or 20 s on back-to-back identical runs: too bimodal to gate. The
# CLI children therefore always get one BLAS thread, whatever the caller set.
CLI_ENV = {"OPENBLAS_NUM_THREADS": "1"}

WORKLOADS = ("smd-train", "smd-score", "fleet-cli")
EVAL_MODES = (("raw", None), ("pa", None), ("kpa", 10), ("kpa", 20), ("kpa", 30))

SIZES = {
    "full": {
        "smd_rows": 28479,
        "smd_metrics": 38,
        "smd_segments": 24,
        "smd_epochs": 1,
        "fleet_train_rows": [1500, 1500, 1500, 4500],
        "fleet_test_rows": 1500,
        "fleet_metrics": 38,
        "fleet_epochs": 2,
        "jobs": 2,
        "config": {},
    },
    # seconds-long shapes for perfbench/test_smoke.py
    "smoke": {
        "smd_rows": 400,
        "smd_metrics": 4,
        "smd_segments": 4,
        "smd_epochs": 8,
        "fleet_train_rows": [300, 300, 300, 900],
        "fleet_test_rows": 400,
        "fleet_metrics": 4,
        "fleet_epochs": 8,
        "jobs": 2,
        "config": {"l": 8, "h": 1, "experts": 2, "kernels": 4, "embed_dim": 16,
                   "tower_hidden": 8, "batch": 32, "lr0": 0.01},
    },
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# the per-workload names of the end-to-end metrics, for the printed table
ALIASES = {
    "smd-train": {"windows_per_s": "train_windows_per_s"},
    "smd-score": {"windows_per_s": "score_windows_per_s", "pipeline_s": "score_eval_s"},
    "fleet-cli": {"windows_per_s": "train_windows_per_s"},
}

PER_LAYER = {  # name -> unit
    "data.load_series_s": "s",
    "data.rows_per_s": "rows/s",
    "data.window_prep_s": "s",
    "model.forward_train_s": "s",
    "model.forward_eval_s": "s",
    "model.forward_calls": "count",
    "model.flops_per_window": "flop",
    "model.eval_gflop_per_s": "GFLOP/s",
    "model.param_count": "count",
    "model.param_bytes": "B",
    "numcore.tape_grad_s": "s",
    "numcore.tape_records_per_step": "count",
    "numcore.adam_step_s": "s",
    "numcore.adam_bytes_per_step": "B",
    "train.train_model_self_s": "s",
    "train.val_forward_s": "s",
    "train.save_checkpoint_s": "s",
    "train.load_checkpoint_s": "s",
    "train.checkpoint_bytes": "B",
    "train.val_loss": "mse",
    "evaluate.score_series_self_s": "s",
    "evaluate.best_f1_s.raw": "s",
    "evaluate.best_f1_s.pa": "s",
    "evaluate.best_f1_s.kpa": "s",
    "evaluate.best_f1_candidates": "count",
    "evaluate.write_scores_s": "s",
    "evaluate.read_scores_s": "s",
    "evaluate.scores_bytes": "B",
    "evaluate.pa_f1": "F1",
    "cli.process_start_s": "s",
    "cli.train_s": "s",
    "cli.score_s": "s",
    "cli.eval_s": "s",
    "cli.report_s": "s",
    "cli.fanout_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# the per-layer metrics each workload's traced run must produce (non-zero),
# and those it must leave at 0
_TRAIN_LAYERS = ("data.load_series_s", "data.rows_per_s", "data.window_prep_s",
                 "model.forward_train_s", "model.forward_calls", "numcore.tape_grad_s",
                 "numcore.tape_records_per_step", "numcore.adam_step_s",
                 "train.train_model_self_s", "train.val_forward_s", "train.save_checkpoint_s",
                 "train.checkpoint_bytes", "train.val_loss")
_SCORE_LAYERS = ("model.forward_eval_s", "model.eval_gflop_per_s", "evaluate.score_series_self_s",
                 "evaluate.write_scores_s", "evaluate.scores_bytes", "train.load_checkpoint_s")
_EVAL_LAYERS = ("evaluate.best_f1_s.raw", "evaluate.best_f1_s.pa", "evaluate.best_f1_s.kpa",
                "evaluate.best_f1_candidates", "evaluate.read_scores_s", "evaluate.pa_f1")
LAYERS_CALLED = {
    "smd-train": _TRAIN_LAYERS + ("model.forward_eval_s",),
    "smd-score": ("data.load_series_s", "data.rows_per_s", "data.window_prep_s",
                  "model.forward_calls", "train.checkpoint_bytes") + _SCORE_LAYERS + _EVAL_LAYERS,
    "fleet-cli": _TRAIN_LAYERS + _SCORE_LAYERS + _EVAL_LAYERS + (
        "cli.train_s", "cli.score_s", "cli.eval_s", "cli.report_s", "cli.fanout_busy_frac"),
}
LAYERS_NOT_CALLED = {"smd-score": ("numcore.tape_grad_s", "numcore.adam_step_s")}
EVERY_WORKLOAD_LAYERS = ("model.flops_per_window", "model.param_count", "model.param_bytes",
                         "numcore.adam_bytes_per_step", "cli.process_start_s")


class Ledger:
    """Operations and output checks: each one attempted, some failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Run:
    """One benchmark run: its arguments, work directory, clock and ledger."""

    def __init__(self, args, work: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = SIZES[args.size]
        self.work = work
        self.ledger = Ledger()
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.child_rss_mb = 0.0
        self.process_starts: list[float] = []

    def more(self, repeats: int) -> bool:
        """Repeat at least twice (the determinism check), then until
        ``--seconds`` of the run have passed."""
        return repeats < 2 or time.monotonic() - self.started < self.seconds

    def child(self, argv: list[str], log_name: str, env_extra=None) -> tuple[int, float]:
        """Run a child to completion; (exit code, wall seconds). Its peak RSS
        (with its own children) is kept in ``child_rss_mb``."""
        env = {**os.environ, **(env_extra or {})}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.work / log_name, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall

    def cadts(self, args: list[str], spans: Path | None = None) -> tuple[int, float]:
        if spans is None:
            argv = [sys.executable, "-m", "cadts.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "cli_shim.py"), str(spans), *args]
        code, wall = self.child(argv, "cadts.log", CLI_ENV)
        self.ledger.check(code == 0, f"cadts {args[0]} exited {code} (see {self.work}/cadts.log)")
        return code, wall

    def set_up(self, build):
        """One set-up: a fresh process's start plus ``build()`` in this one.
        Returns (what ``build`` made, seconds)."""
        start = self.process_start()
        t0 = time.perf_counter()
        made = build()
        return made, start + time.perf_counter() - t0

    def spare_set_up(self, build) -> float:
        """An untraced set-up whose objects are dropped at once; each repeat
        makes one, so that ``setup_s`` is a median of more samples."""
        return self.set_up(build)[1]

    def process_start(self) -> float:
        """Interpreter start plus ``import cadts.cli``, in a fresh process."""
        code, wall = self.child([sys.executable, "-c", "import cadts.cli"], "start.log")
        self.ledger.check(code == 0, f"import cadts.cli exited {code}")
        self.process_starts.append(wall)
        return wall

    def train_config(self, epochs: int):
        from cadts.train import TrainConfig

        return TrainConfig(seed=self.seed, max_epochs=epochs, early_stop_patience=None,
                           **self.size["config"])


# --- computed counts ------------------------------------------------------------


def computed_counts(cfg, n_metrics: int) -> dict[str, float]:
    """Parameter count and bytes, forward FLOPs per window, and the bytes
    Adam touches per step, from the config shapes of the ``full`` variant
    (a multiply-add is 2 FLOPs; biases, ReLU and softmax are left out)."""
    k, l, m, n = n_metrics, cfg.l, cfg.experts, cfg.kernels
    w, hid = cfg.embed_dim, cfg.tower_hidden
    expert = n * l + k * n * w + w + w * w + w
    params = m * expert + l * m + k * l * m + k * w * hid + 2 * k * hid + k
    flops = (
        m * (2 * k * l * n + 2 * k * n * w + 2 * w * w)  # conv, ff1, ff2 per expert
        + 2 * 2 * k * l * m  # shared and personalized gate logits
        + 2 * k * m * w  # gate-weighted blend of expert embeddings
        + 2 * k * w * hid + 2 * k * hid  # towers
    )
    itemsize = 8 if cfg.dtype == "float64" else 4
    return {
        "model.flops_per_window": float(flops),
        "model.param_count": float(params),
        "model.param_bytes": float(params * itemsize),
        # reads parameter, gradient and both moments; writes parameter and moments
        "numcore.adam_bytes_per_step": float(7 * params * itemsize),
    }


# --- span arithmetic ------------------------------------------------------------


def annotate(spans: list[dict]) -> list[dict]:
    """Add each span's self time and its parent's name (in place)."""
    from tracer import self_times

    for span, own in zip(spans, self_times(spans)):
        span["self"] = own
        span["parent_name"] = spans[span["parent"]]["name"] if span["parent"] >= 0 else None
    return spans


def layer_metrics(spans: list[dict], units: int, computed: dict, extra: dict) -> dict[str, float]:
    """Per-layer numbers from annotated spans covering ``units`` repeats of
    the workload: per-step and per-chunk ones are means per call, the rest
    totals per repeat. Layers the workload never calls read 0 (as do the
    metrics missing here and from ``extra``); ``check_layers`` fails the run
    when one it should call does."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by[name])

    def per_call(name):
        return dur(name) / len(by[name]) if by[name] else 0.0

    def per_unit(name):
        return dur(name) / units

    loads = by["data.load_series"]
    eval_s = dur("model.forward_eval")
    eval_windows = sum(s["windows"] for s in by["model.forward_eval"])
    grads = by["numcore.tape_grad"]
    out = {
        "data.load_series_s": per_unit("data.load_series"),
        "data.rows_per_s": sum(s["rows"] for s in loads) / dur("data.load_series") if loads else 0.0,
        "data.window_prep_s": per_unit("data.apply_minmax") + per_unit("data.make_windows"),
        "model.forward_train_s": per_call("model.forward_train"),
        "model.forward_eval_s": per_call("model.forward_eval"),
        "model.forward_calls": (len(by["model.forward_train"]) + len(by["model.forward_eval"])) / units,
        "model.eval_gflop_per_s": (
            computed["model.flops_per_window"] * eval_windows / eval_s / 1e9 if eval_s else 0.0
        ),
        "numcore.tape_grad_s": per_call("numcore.tape_grad"),
        "numcore.tape_records_per_step": (
            sum(s["records"] for s in grads) / len(grads)
            if grads and all(s["records"] is not None for s in grads) else 0.0
        ),
        "numcore.adam_step_s": per_call("numcore.adam_step"),
        "train.train_model_self_s": sum(s["self"] for s in by["train.train_model"]) / units,
        "train.val_forward_s": sum(
            s["end"] - s["start"] for s in by["model.forward_eval"]
            if s["parent_name"] == "train.train_model"
        ) / units,
        "train.save_checkpoint_s": per_unit("train.save_checkpoint"),
        "train.load_checkpoint_s": per_unit("train.load_checkpoint"),
        "evaluate.score_series_self_s": sum(s["self"] for s in by["evaluate.score_series"]) / units,
        "evaluate.best_f1_s.raw": per_call("evaluate.best_f1.raw"),
        "evaluate.best_f1_s.pa": per_call("evaluate.best_f1.pa"),
        "evaluate.best_f1_s.kpa": per_call("evaluate.best_f1.kpa"),
        "evaluate.write_scores_s": per_unit("evaluate.write_scores"),
        "evaluate.read_scores_s": per_unit("evaluate.read_scores"),
        "cli.train_s": per_unit("cli.train"),
        "cli.score_s": per_unit("cli.score"),
        "cli.eval_s": per_unit("cli.eval"),
        "cli.report_s": per_unit("cli.report"),
    }
    out.update(computed)
    out.update(extra)
    return out


# --- output checks --------------------------------------------------------------


def check_best_f1(ledger: Ledger, scores, labels, mode: str, k, f1: float, threshold: float,
                  where: str) -> None:
    """best_f1's F1 must equal a recount through the public prf,
    point_adjust and kth_point_adjust at the threshold it returned."""
    import numpy as np
    from cadts import evaluate

    preds = (np.asarray(scores) >= threshold).astype(np.int64)
    if mode == "pa":
        preds = evaluate.point_adjust(labels, preds)
    elif mode == "kpa":
        preds = evaluate.kth_point_adjust(labels, preds, k)
    _, _, recount = evaluate.prf(labels, preds)
    ledger.check(recount == f1, f"{where}: {mode} k={k} best_f1 F1 {f1!r} != recount {recount!r}")


def check_learned(ledger: Ledger, val_loss: float, windows, n_train: int, where: str) -> None:
    """The trained model must beat predicting each metric's training mean on
    the validation windows; training with broken numerics does not."""
    targets = windows.targets
    baseline = float(((targets[n_train:] - targets[:n_train].mean(axis=0)) ** 2).mean())
    ledger.check(val_loss < baseline,
                 f"{where}: val_loss {val_loss!r} not below the mean predictor's {baseline!r}")


def check_layers(ledger: Ledger, workload: str, layers: dict) -> None:
    """Each layer the workload calls must have produced spans and a non-zero
    value, and the layers it must never call must read 0: a renamed
    function or tape field shows as a failure, not as a speed-up."""
    for name in LAYERS_CALLED[workload] + EVERY_WORKLOAD_LAYERS:
        value = layers.get(name, 0.0)
        ledger.check(value > 0, f"{workload}: layer metric {name} read {value!r}:"
                                " its spans are missing or incomplete")
    for name in LAYERS_NOT_CALLED.get(workload, ()):
        value = layers.get(name, 0.0)
        ledger.check(value == 0, f"{workload}: layer metric {name} read {value!r}, not 0")


def check_same(ledger: Ledger, first: dict, again: dict, what: str) -> None:
    for name, blob in again.items():
        ledger.check(blob == first.get(name), f"{what} {name} differs between same-seed repeats")


# --- workloads ------------------------------------------------------------------


def smd_train(run: Run, inputs: Path):
    from cadts import data, model, train
    from tracer import Tracer

    cfg = run.train_config(run.size["smd_epochs"])
    tracer = Tracer()
    samples = defaultdict(list)
    first = None
    checkpoint = run.work / "checkpoint.cadckpt"
    history_path = run.work / "history.tsv"

    def build():
        series = data.load_series(inputs / "train.csv")
        scaler = data.fit_minmax(series, clip=cfg.clip)
        windows = data.make_windows(data.apply_minmax(scaler, series, clip=cfg.clip), cfg.l, cfg.h)
        net = model.build_model(cfg.model_config(), n_metrics=series.shape[1], rng_seed=cfg.seed)
        return scaler, windows, net

    repeat = 0
    while run.more(repeat):
        traced = run.trace and repeat % 2 == 1
        samples["setup_s"].append(run.spare_set_up(build))
        with tracer.installed() if traced else contextlib.nullcontext():
            (scaler, windows, net), setup = run.set_up(build)
            t1 = time.perf_counter()
            net, history = train.train_model(net, windows, cfg)
            t2 = time.perf_counter()
            train.save_checkpoint(net, scaler, checkpoint, cfg)
            train.write_history(history, history_path)
            t3 = time.perf_counter()
        n_train = len(windows) - int(len(windows) * cfg.val_fraction)
        val_loss = history.epochs[-1].val_loss
        run.ledger.check(len(history.epochs) == cfg.max_epochs,
                         f"smd-train: {len(history.epochs)} epochs, not {cfg.max_epochs}")
        check_learned(run.ledger, val_loss, windows, n_train, "smd-train")
        blobs = {"history.tsv": history_path.read_bytes()}
        if first is None:
            first = blobs
        else:
            check_same(run.ledger, first, blobs, "smd-train")
        kind = "traced" if traced else "plain"
        samples[f"{kind}.pipeline_s"].append(t3 - t1)
        if not traced:
            samples["setup_s"].append(setup)
            samples["windows_per_s"].append(n_train * len(history.epochs) / (t2 - t1))
            samples["pipeline_s"].append(t3 - t1)
            samples["val_loss"].append(val_loss)
        # a user's run holds one set of these; free them before the next set-up
        del scaler, windows, net, history
        repeat += 1

    computed = computed_counts(cfg, run.size["smd_metrics"])
    e2e = _e2e(samples, run)
    layers = {}
    if run.trace:
        layers = layer_metrics(annotate(tracer.spans), len(samples["traced.pipeline_s"]), computed, {
            "train.checkpoint_bytes": float(checkpoint.stat().st_size),
            "train.val_loss": statistics.median(samples["val_loss"]),
            "cli.process_start_s": statistics.median(run.process_starts),
            "trace.overhead_frac": _overhead(samples),
        })
    extra = {"val_loss": (statistics.median(samples["val_loss"]), "mse")}
    return e2e, extra, layers, tracer.spans, computed


def smd_score(run: Run, inputs: Path):
    import numpy as np
    from cadts import data, evaluate, train
    from tracer import Tracer

    tracer = Tracer()
    samples = defaultdict(list)
    first = None
    scores_path = run.work / "scores.txt"

    def build():
        net, scaler = train.load_checkpoint(inputs / "checkpoint.cadckpt")
        series = data.load_series(inputs / "test.csv", labels_path=inputs / "test_label.csv")
        return net, scaler, series

    repeat = 0
    while run.more(repeat):
        traced = run.trace and repeat % 2 == 1
        samples["setup_s"].append(run.spare_set_up(build))
        with tracer.installed() if traced else contextlib.nullcontext():
            (net, scaler, series), setup = run.set_up(build)
            for _ in range(SCORE_PASSES):
                t1 = time.perf_counter()
                scored = evaluate.score_series(net, series, scaler)
                t2 = time.perf_counter()
                evaluate.write_scores(scores_path, scored)
                t3 = time.perf_counter()
                hits = [evaluate.best_f1(scored, series.labels, mode=mode, k=k)
                        for mode, k in EVAL_MODES]
                t4 = time.perf_counter()
                back = evaluate.read_scores(scores_path)

                run.ledger.check(bool(np.isfinite(scored.scores).all()), "smd-score: non-finite scores")
                run.ledger.check(np.array_equal(back, scored.scores), "smd-score: scores file roundtrip")
                for (mode, k), hit in zip(EVAL_MODES, hits):
                    check_best_f1(run.ledger, scored.scores, series.labels, mode, k, hit.f1,
                                  hit.threshold, "smd-score")
                blobs = {"scores.txt": scores_path.read_bytes()}
                if first is None:
                    first = blobs
                else:
                    check_same(run.ledger, first, blobs, "smd-score")
                n_windows = len(scored) - scored.valid_from
                candidates = len(np.unique(scored.scores)) + 1
                samples[f"{'traced' if traced else 'plain'}.pipeline_s"].append(t4 - t1)
                if not traced:
                    samples["windows_per_s"].append(n_windows / (t2 - t1))
                    samples["pipeline_s"].append(t4 - t1)
                    samples["eval_s"].append(t4 - t3)
                    samples["pa_f1"].append(hits[1].f1)
        if not traced:
            samples["setup_s"].append(setup)
        computed = computed_counts(net.config, net.n_metrics)
        # a user's run holds one set of these; free them before the next set-up
        del net, scaler, series, scored, back
        repeat += 1

    e2e = _e2e(samples, run)
    extra = {"eval_s": (statistics.median(samples["eval_s"]), "s"),
             "pa_f1": (statistics.median(samples["pa_f1"]), "F1")}
    layers = {}
    if run.trace:
        spans = annotate(tracer.spans)
        setups = len(samples["traced.pipeline_s"]) / SCORE_PASSES

        def per_setup(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / setups

        # units are score passes; set-up layers are per set-up instead
        layers = layer_metrics(spans, len(samples["traced.pipeline_s"]), computed, {
            "data.load_series_s": per_setup("data.load_series"),
            "train.load_checkpoint_s": per_setup("train.load_checkpoint"),
            "train.checkpoint_bytes": float((inputs / "checkpoint.cadckpt").stat().st_size),
            "evaluate.best_f1_candidates": float(candidates),
            "evaluate.scores_bytes": float(scores_path.stat().st_size),
            "evaluate.pa_f1": hits[1].f1,
            "cli.process_start_s": statistics.median(run.process_starts),
            "trace.overhead_frac": _overhead(samples),
        })
    return e2e, extra, layers, tracer.spans, computed


def fleet_cli(run: Run, inputs: Path):
    import numpy as np
    from cadts import data, evaluate, model

    size = run.size
    data_root = inputs / "data"
    entities = sorted(p.name for p in data_root.iterdir())
    cfg = run.train_config(size["fleet_epochs"])
    sets = [f"--set={key}={value}" for key, value in
            {"seed": cfg.seed, "max_epochs": cfg.max_epochs, "early_stop_patience": "none",
             **size["config"]}.items()]
    jobs = str(size["jobs"])
    samples = defaultdict(list)
    spans: list[dict] = []
    busy = fanned = 0.0
    first = None

    def build():
        """A proxy for the fleet's set-up: the per-entity set-up of ``cadts
        train`` for every entity in turn, in this process (the CLI does it
        inside its ``--jobs`` workers, where it cannot be timed untraced)."""
        train_windows, baselines = 0, []
        for entity in entities:
            series = data.load_series(data_root / entity / "train.csv")
            scaler = data.fit_minmax(series, clip=cfg.clip)
            windows = data.make_windows(data.apply_minmax(scaler, series, clip=cfg.clip), cfg.l, cfg.h)
            model.build_model(cfg.model_config(), n_metrics=series.shape[1], rng_seed=cfg.seed)
            n_train = len(windows) - int(len(windows) * cfg.val_fraction)
            train_windows += n_train
            baselines.append((windows, n_train))
        return train_windows, baselines

    repeat = 0
    while run.more(repeat):
        traced = run.trace and repeat % 2 == 1
        spans_dir = run.work / f"spans-{repeat}"
        if traced:
            spans_dir.mkdir()

        def shim(name):
            return spans_dir / f"{name}.json" if traced else None

        # set-up is never traced here: both samples count on every repeat
        samples["setup_s"].append(run.spare_set_up(build))
        (train_windows, baselines), setup = run.set_up(build)
        samples["setup_s"].append(setup)

        run_dir = run.work / f"run-{repeat}"
        common = ["--run-dir", str(run_dir), "--data-root", str(data_root)]
        report_path = run_dir / "report.tsv"
        walls = {}
        for sub, sub_args in (
            ("train", ["--data-root", str(data_root), "--out", str(run_dir), "--jobs", jobs, *sets]),
            ("score", [*common, "--jobs", jobs]),
            ("eval", common),
            ("report", ["--run-dir", str(run_dir), "--output", str(report_path)]),
        ):
            code, walls[sub] = run.cadts([sub, *sub_args], shim(sub))
            if code:
                raise RuntimeError(f"cadts {sub} failed")
        pipeline = sum(walls.values())
        print(f"repeat {repeat}{' traced' if traced else ''}: setup {setup:.3f} s, "
              + ", ".join(f"{sub} {wall:.3f} s" for sub, wall in walls.items()), file=sys.stderr)

        blobs, val_losses = {}, []
        for entity, (windows, n_train) in zip(entities, baselines):
            d = run_dir / entity
            blobs[f"{entity}/history.tsv"] = (d / "history.tsv").read_bytes()
            blobs[f"{entity}/scores.txt"] = (d / "scores.txt").read_bytes()
            history = blobs[f"{entity}/history.tsv"].decode().splitlines()[1:-1]
            run.ledger.check(len(history) == cfg.max_epochs,
                             f"{entity}: {len(history)} epochs, not {cfg.max_epochs}")
            val_losses.append(float(history[-1].split("\t")[2]))
            check_learned(run.ledger, val_losses[-1], windows, n_train, entity)
            scores = evaluate.read_scores(d / "scores.txt")
            labels = data.load_labels(data_root / entity / "test_label.csv")
            run.ledger.check(bool(np.isfinite(scores).all()), f"{entity}: non-finite scores")
            rows = evaluate.read_metrics(d / "metrics.tsv")
            run.ledger.check(len(rows) == len(EVAL_MODES), f"{entity}: {len(rows)} metrics rows")
            for row in rows:
                check_best_f1(run.ledger, scores, labels, row.mode, row.k, row.f1, row.threshold,
                              entity)
        report = [line.split("\t") for line in report_path.read_text().splitlines()[1:]]
        run.ledger.check(
            [(r[0], r[1]) for r in report] == [(m, "-" if k is None else str(k)) for m, k in EVAL_MODES]
            and all(int(r[2]) == len(entities) for r in report),
            f"report rows {report} do not cover {len(EVAL_MODES)} modes x {len(entities)} entities",
        )
        if first is None:
            first = blobs
        else:
            check_same(run.ledger, first, blobs, "fleet-cli")

        kind = "traced" if traced else "plain"
        samples[f"{kind}.pipeline_s"].append(pipeline)
        samples["pa_f1"].append(next(float(r[3]) for r in report if r[0] == "pa"))
        if traced:
            for sub in walls:
                sub_spans = annotate(json.loads(shim(sub).read_text()))
                spans.extend(sub_spans)
                fanned += sum(s["end"] - s["start"] for s in sub_spans
                              if s["name"] in ("cli.train", "cli.score"))
            busy += _alone_pass(run, entities, data_root, sets, spans_dir, spans)
        else:
            samples["windows_per_s"].append(train_windows * cfg.max_epochs / walls["train"])
            samples["pipeline_s"].append(pipeline)
            samples["val_loss"].append(sum(val_losses) / len(val_losses))
        if repeat > 0:
            shutil.rmtree(run_dir)
        repeat += 1

    computed = computed_counts(cfg, size["fleet_metrics"])
    layers = {}
    if run.trace:
        kept = run.work / "run-0"
        layers = layer_metrics(spans, len(samples["traced.pipeline_s"]), computed, {
            "train.checkpoint_bytes": float((kept / entities[0] / "checkpoint.cadckpt").stat().st_size),
            "evaluate.best_f1_candidates": float(np.mean([
                len(np.unique(evaluate.read_scores(kept / e / "scores.txt"))) + 1 for e in entities])),
            "evaluate.scores_bytes": float((kept / entities[0] / "scores.txt").stat().st_size),
            "train.val_loss": statistics.median(samples["val_loss"]),
            "evaluate.pa_f1": statistics.median(samples["pa_f1"]),
            "cli.process_start_s": statistics.median(run.process_starts),
            "cli.fanout_busy_frac": busy / (size["jobs"] * fanned),
            "trace.overhead_frac": _overhead(samples),
        })
    e2e = _e2e(samples, run, include_children=True)
    extra = {"val_loss": (statistics.median(samples["val_loss"]), "mse"),
             "pa_f1": (statistics.median(samples["pa_f1"]), "F1")}
    return e2e, extra, layers, spans, computed


def _alone_pass(run: Run, entities, data_root: Path, sets, spans_dir: Path, spans: list) -> float:
    """Train and score each entity alone with ``--jobs 1`` under the tracer.

    ``--jobs`` workers cannot return spans, so the per-entity layer spans
    come from here. Returns the sum of the per-entity subcommand walls;
    the layer spans are appended to ``spans``.
    """
    out = spans_dir / "alone"
    busy = 0.0
    for entity in entities:
        for sub, sub_args in (
            ("train", ["--data-root", str(data_root), "--out", str(out), *sets]),
            ("score", ["--run-dir", str(out), "--data-root", str(data_root)]),
        ):
            path = spans_dir / f"{entity}-{sub}.json"
            code, _ = run.cadts([sub, *sub_args, "--entities", entity, "--jobs", "1"], path)
            if code:
                raise RuntimeError(f"cadts {sub} --entities {entity} failed")
            for span in annotate(json.loads(path.read_text())):
                if span["name"] == f"cli.{sub}":
                    busy += span["end"] - span["start"]
                else:
                    spans.append(span)
    return busy


# --- helpers --------------------------------------------------------------------


def _overhead(samples) -> float:
    plain, traced = samples["plain.pipeline_s"], samples["traced.pipeline_s"]
    if not plain or not traced:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _e2e(samples, run: Run, include_children: bool = False) -> dict:
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if include_children:
        rss_mb = run.child_rss_mb
    out = {"peak_rss_mb": (rss_mb, "MB")}
    for name in ("setup_s", "windows_per_s", "pipeline_s"):
        if samples[name]:
            out[name] = (statistics.median(samples[name]), END_TO_END[name])
    return out


def env_stamp(seed: int) -> dict:
    """Versions, BLAS and its thread setting as found, cores and CPU model."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_child_env": CLI_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def _table(workload: str, e2e: dict, extra: dict, layers: dict, computed: dict,
           ledger: Ledger) -> list[str]:
    lines = [f"{'metric':<34} {'value':>16}  unit"]
    aliases = ALIASES[workload]
    for name, (value, unit) in {**e2e, **extra}.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        lines.append(f"{label:<34} {value:>16.6g}  {unit}")
    lines.append(f"{'error_rate':<34} {ledger.failed / max(ledger.attempted, 1):>16.6g}"
                 f"  failed/attempted ({ledger.failed}/{ledger.attempted})")
    for name, value in layers.items():
        note = "  (computed)" if name in computed else ""
        lines.append(f"{name:<34} {value:>16.6g}  {PER_LAYER[name]}{note}")
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cadts benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cadts" / "cli.py").is_file():
        print(f"error: the cadts sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        inputs = work / "inputs"
        code, _ = run.child([sys.executable, str(BENCH / "synth.py"), args.workload,
                             str(args.seed), json.dumps(run.size), str(inputs)], "synth.log")
        if code != 0:
            print(f"error: input generation failed ({work}/synth.log)", file=sys.stderr)
            return 2
        run.child_rss_mb = 0.0
        run.started = time.monotonic()
        workload = {"smd-train": smd_train, "smd-score": smd_score, "fleet-cli": fleet_cli}
        try:
            e2e, extra, layers, spans, computed = workload[args.workload](run, inputs)
        except Exception as exc:  # a program failure is a failed operation, not a crash
            import traceback

            traceback.print_exc()
            run.ledger.check(False, f"{args.workload} aborted: {exc!r}")
            e2e, extra, layers, spans, computed = {}, {}, {}, [], {}

        ledger = run.ledger
        if args.trace and layers:
            check_layers(ledger, args.workload, layers)
        correct = ledger.failed == 0
        if args.trace:
            metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            metrics = {name: {"value": float(e2e[name][0]), "unit": unit}
                       for name, unit in END_TO_END.items() if name in e2e}
            correct = correct and len(metrics) == len(END_TO_END)
        result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                  "metrics": metrics}
        env = env_stamp(args.seed)
        table = _table(args.workload, e2e, extra, layers, computed, ledger)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "env": env, "result": result,
                  "table": table, "computed": computed,
                  "extra": {name: value for name, (value, _) in extra.items()}}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            (results / f"{stem}-spans.json").write_text(json.dumps(spans))
        print(f"workload {args.workload} seed {args.seed} size {args.size}")
        print("env " + json.dumps(env))
        print("\n".join(table))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
