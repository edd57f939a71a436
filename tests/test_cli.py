"""Operator surface: subcommands, exit codes, file/in-process parity."""

import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
import warnings
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadts import cli
from cadts.cli import main, make_train_config
from cadts.data import load_labels, load_series, make_windows, fit_minmax, apply_minmax
from cadts.errors import ConfigError, DataError
from cadts.evaluate import EvalRow, best_f1, read_metrics, read_scores, score_series, write_metrics
from cadts.model import VARIANTS, ModelConfig, build_model
from cadts.train import (EpochStats, TrainHistory, load_checkpoint, save_checkpoint, train_model,
                         write_history)

from _procs import children, cpu_seconds, ignores_sigint, running
from _synth import make_sines

FAST = [
    "--set", "l=8", "--set", "h=1", "--set", "experts=2", "--set", "kernels=4",
    "--set", "max_epochs=2", "--set", "embed_dim=16", "--set", "tower_hidden=8",
    "--set", "batch=32", "--set", "seed=3",
]


def write_entity(root, name, t_train=260, t_test=160, n_metrics=3, seed=0):
    d = root / name
    d.mkdir(parents=True)
    train = make_sines(t_train, n_metrics, seed=seed)
    test = make_sines(t_test, n_metrics, seed=seed + 1)
    labels = np.zeros(t_test, dtype=int)
    test.values[60:70] += 0.8  # injected anomaly segment
    labels[60:70] = 1
    np.savetxt(d / "train.csv", train.values, fmt="%.17g", delimiter=",")
    np.savetxt(d / "test.csv", test.values, fmt="%.17g", delimiter=",")
    (d / "test_label.csv").write_text("".join(f"{v}\n" for v in labels))
    return d


# --- eval ----------------------------------------------------------------------


def test_eval_separable_scores(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
               "--mode", "pa", "--entity", "toy"])
    assert rc == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split("\t")
    assert row[0] == "toy" and row[1] == "pa"
    assert float(row[6]) == 1.0


def test_eval_writes_metrics_file(tmp_path):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    out = tmp_path / "metrics.tsv"
    rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
               "--entity", "toy", "--output", str(out)])
    assert rc == 0
    rows = read_metrics(out)
    assert [(r.mode, r.k) for r in rows] == [("raw", None), ("pa", None), ("kpa", 10), ("kpa", 20), ("kpa", 30)]
    assert all(r.f1 == 1.0 for r in rows)


def test_eval_negative_k_is_usage_error(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    for mode in ("kpa", "all"):
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels), "--mode", mode, "--k", "10,-3"])
        assert rc == 1
        assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", [None, "0.5"])
def test_eval_huge_k_equals_pa(tmp_path, capsys, threshold):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.3\n0.9\n0.2\n0.6\n0.4\n0.1\n")
    labels.write_text("0\n1\n1\n0\n1\n1\n0\n")
    argv = ["eval", "--scores", str(scores), "--labels", str(labels), "--entity", "toy",
            "--k", f"{2**63 - 2},{10**20}"]
    if threshold is not None:
        argv += ["--threshold", threshold]
    assert main(argv) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[1], r[2]) for r in rows] == [("raw", "-"), ("pa", "-"), ("kpa", str(2**63 - 2)), ("kpa", str(10**20))]
    pa = rows[1][4:]
    assert float(pa[2]) == 1.0
    assert rows[2][4:] == pa and rows[3][4:] == pa


BREAK, NOT_UTF8 = "holds a tab or a line break", "is not UTF-8 text"


@pytest.mark.parametrize("entity, fault", [("a\tb", BREAK), ("a\nb", BREAK), ("a\rb", BREAK),
                                           (os.fsdecode(b"bad\xff"), NOT_UTF8)],
                         ids=["tab", "lf", "cr", "not-utf8"])
def test_eval_entity_that_breaks_its_table_exits_2(tmp_path, capsys, entity, fault):
    # a tab's metrics file used to be written, and report then refused it; a
    # name that is not UTF-8 ended in a traceback when the file was encoded
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    out = tmp_path / "m.tsv"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    rc, err = run_eval(scores, labels, capsys, "--entity", entity, "--mode", "pa", "--output", str(out))
    assert rc == 2 and err == f"error: table cell {entity!r} {fault}\n"
    assert sorted(tmp_path.iterdir()) == [labels, scores]


def test_eval_entity_directory_that_breaks_its_table_exits_2(tmp_path, capsys):
    data_root, run_dir = tmp_path / "data", tmp_path / "runs"
    for path, text in ((data_root / "a\tb" / "test_label.csv", "0\n1\n0\n"),
                       (run_dir / "a\tb" / "scores.txt", "0.1\n0.9\n0.2\n")):
        path.parent.mkdir(parents=True)
        path.write_text(text)
    rc, err = run_main(["eval", "--run-dir", str(run_dir), "--data-root", str(data_root)], capsys)
    assert rc == 2 and err == "error: table cell 'a\\tb' holds a tab or a line break\n"
    assert list((run_dir / "a\tb").iterdir()) == [run_dir / "a\tb" / "scores.txt"]


def test_eval_entity_directory_that_is_not_utf8_text_exits_2(tmp_path, capsys):
    # such a directory trains and scores; its metrics file cannot be written as UTF-8
    data_root, run_dir, entity = tmp_path / "data", tmp_path / "runs", os.fsdecode(b"bad\xff")
    for path, text in ((data_root / entity / "test_label.csv", "0\n1\n0\n"),
                       (run_dir / entity / "scores.txt", "0.1\n0.9\n0.2\n")):
        path.parent.mkdir(parents=True)
        path.write_text(text)
    rc, err = run_main(["eval", "--run-dir", str(run_dir), "--data-root", str(data_root)], capsys)
    assert rc == 2 and err == "error: table cell 'bad\\udcff' is not UTF-8 text\n"
    assert list((run_dir / entity).iterdir()) == [run_dir / entity / "scores.txt"]


def test_eval_prints_each_entity_before_a_later_one_fails(tmp_path, capsys):
    data_root, run_dir = tmp_path / "data", tmp_path / "runs"
    for entity in ("a", "b\tc"):
        for path, text in ((data_root / entity / "test_label.csv", "0\n1\n0\n"),
                           (run_dir / entity / "scores.txt", "0.1\n0.9\n0.2\n")):
            path.parent.mkdir(parents=True)
            path.write_text(text)
    rc = main(["eval", "--run-dir", str(run_dir), "--data-root", str(data_root), "--mode", "pa"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == "error: table cell 'b\\tc' holds a tab or a line break\n"
    assert captured.out == (run_dir / "a" / "metrics.tsv").read_text() == (
        "entity\tmode\tk\tthreshold\tP\tR\tF1\na\tpa\t-\t0.9\t1.0\t1.0\t1.0\n")


def test_eval_nan_threshold_is_usage_error(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    out = tmp_path / "m.tsv"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    for mode in ("pa", "all"):
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels), "--mode", mode,
                   "--threshold", "nan", "--output", str(out)])
        assert rc == 1
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("threshold, f1", [("inf", 0.0), ("-inf", 0.4)])
def test_eval_infinite_threshold_is_accepted(tmp_path, capsys, threshold, f1):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n0.3\n")
    labels.write_text("0\n1\n0\n0\n")
    for option in ([f"--threshold={threshold}"], ["--threshold", threshold]):
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels), "--mode", "raw", *option])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert float(row[6]) == pytest.approx(f1)


@pytest.mark.parametrize("mode, ks, expected", [
    ("kpa", "10,10,20", [("kpa", "10"), ("kpa", "20")]),
    ("all", "10,10", [("raw", "-"), ("pa", "-"), ("kpa", "10")]),
])
def test_eval_repeated_k_counts_once(tmp_path, capsys, mode, ks, expected):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    out = tmp_path / "m.tsv"
    scores.write_text("0.1\n0.3\n0.9\n0.2\n0.6\n0.4\n0.1\n")
    labels.write_text("0\n1\n1\n0\n1\n1\n0\n")
    rc = main(["eval", "--scores", str(scores), "--labels", str(labels), "--entity", "toy",
               "--mode", mode, "--k", ks, "--output", str(out)])
    assert rc == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[1], r[2]) for r in rows] == expected
    assert main(["report", "--metrics", str(out)]) == 0
    report = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(report) == len(expected)
    assert all(cells[2] == "1" for cells in report)


@pytest.mark.parametrize("threshold", [None, "0.15"], ids=["sweep", "fixed"])
def test_eval_all_negative_labels_is_data_error(tmp_path, capsys, threshold):
    # the sweep has no best F1 to find; one fixed threshold counts P = R = F1 = 0
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.2\n")
    labels.write_text("0\n0\n")
    argv = ["eval", "--scores", str(scores), "--labels", str(labels), "--entity", "toy", "--k", "3"]
    if threshold is None:
        assert main(argv) == 2
        assert "positive" in capsys.readouterr().err
    else:
        assert main(argv + ["--threshold", threshold]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"toy\t{mode}\t{k}\t0.15\t0.0\t0.0\t0.0" for mode, k in (("raw", "-"), ("pa", "-"), ("kpa", "3"))]


def test_eval_stdout_is_the_metrics_file(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n0.4\n")
    labels.write_text("0\n1\n0\n1\n")
    out = tmp_path / "m.tsv"
    rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
               "--entity", "toy", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


# --- report --------------------------------------------------------------------


def test_report_aggregates_f1_star(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    header = "entity\tmode\tk\tthreshold\tP\tR\tF1\n"
    a.write_text(header + "e1\tpa\t-\t0.5\t1.0\t0.5\t0.6666666666666666\n")
    b.write_text(header + "e2\tpa\t-\t0.5\t0.5\t1.0\t0.6666666666666666\n")
    rc = main(["report", "--metrics", str(a), str(b)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mode\tk\tentities\tF1\tP\tR\tF1*"
    cells = lines[1].split("\t")
    assert cells[0] == "pa" and cells[2] == "2"
    assert float(cells[6]) == 0.75


@pytest.mark.parametrize(
    "column, cell, reason",
    [("k", "x", "is not an integer or '-'"), ("threshold", "abc", "is not a number"),
     ("P", "1/2", "is not a finite number"), ("P", "nan", "is not a finite number"),
     ("R", "inf", "is not a finite number"), ("F1", "-inf", "is not a finite number")],
)
def test_report_bad_metrics_cell_exits_2_naming_it(tmp_path, capsys, column, cell, reason):
    metrics = tmp_path / "m.tsv"
    write_metrics(metrics, [EvalRow("e1", "pa", None, 0.5, 1.0, 0.5, 2 / 3),
                            EvalRow("e1", "kpa", 10, 0.5, 1.0, 0.5, 2 / 3)])
    lines = metrics.read_text().splitlines()
    cells = lines[2].split("\t")
    cells[lines[0].split("\t").index(column)] = cell
    lines[2] = "\t".join(cells)
    metrics.write_text("\n".join(lines) + "\n")
    assert main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{metrics}: line 3: {column} {cell!r} {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, reason",
    [(None, "no metrics rows"),
     ("e1\tbogus\t-\t0.5\t1.0\t0.5\t0.5", "line 3: mode 'bogus' with k '-' is not"),
     ("e1\tpa\t7\t0.5\t1.0\t0.5\t0.5", "line 3: mode 'pa' with k '7' is not"),
     ("e1\traw\t0\t0.5\t1.0\t0.5\t0.5", "line 3: mode 'raw' with k '0' is not"),
     ("e1\tkpa\t-\t0.5\t1.0\t0.5\t0.5", "line 3: mode 'kpa' with k '-' is not")],
    ids=["header-only", "bogus-mode", "pa-with-k", "raw-with-k", "kpa-without-k"],
)
def test_report_rejects_a_metrics_file_eval_never_writes(tmp_path, capsys, row, reason):
    metrics = tmp_path / "m.tsv"
    write_metrics(metrics, [EvalRow("e1", "raw", None, 0.5, 1.0, 0.5, 2 / 3)] if row else [])
    if row:
        metrics.write_text(metrics.read_text() + row + "\n")
    rc, err = run_main(["report", "--metrics", str(metrics), "--output", str(tmp_path / "r.tsv")], capsys)
    assert rc == 2 and err.startswith(f"error: {metrics}: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "r.tsv").exists()


def test_history_and_report_tables_are_pinned_bytes(tmp_path, capsys):
    # val_fraction=0 leaves every epoch without a validation loss
    history = TrainHistory([EpochStats(1, 0.1 + 0.2, None, 1e-3, 9.0), EpochStats(2, 0.25, None, 5e-4, 9.0)])
    write_history(history, tmp_path / "history.tsv")
    assert (tmp_path / "history.tsv").read_bytes() == (
        b"epoch\ttrain_loss\tval_loss\tlr\n1\t0.30000000000000004\t-\t0.001\n2\t0.25\t-\t0.0005\n"
        b"stopping\tmax_epochs\n"
    )
    metrics = tmp_path / "m.tsv"
    write_metrics(metrics, [EvalRow("e1", "pa", None, 0.5, 1.0, 0.5, 2 / 3),
                            EvalRow("e2", "pa", None, 0.25, 0.5, 0.5, 0.5),
                            EvalRow("e1", "kpa", 10, 0.5, 1.0, 0.5, 2 / 3)])
    assert main(["report", "--metrics", str(metrics), "--output", str(tmp_path / "r.tsv")]) == 0
    expected = ("mode\tk\tentities\tF1\tP\tR\tF1*\npa\t-\t2\t0.5833333333333333\t0.75\t0.5\t0.6\n"
                "kpa\t10\t1\t0.6666666666666666\t1.0\t0.5\t0.6666666666666666\n")
    assert capsys.readouterr().out == expected
    assert (tmp_path / "r.tsv").read_bytes() == expected.encode()


def test_report_run_dir_that_is_missing_a_file_or_empty_exits_2_naming_it(tmp_path, capsys):
    run_dir = tmp_path / "runs"
    argv = ["report", "--run-dir", str(run_dir)]
    assert run_main(argv, capsys) == (2, f"error: {run_dir}: not found\n")
    run_dir.write_text("")
    assert run_main(argv, capsys) == (2, f"error: {run_dir}: is not a directory\n")
    run_dir.unlink()
    (run_dir / "e1").mkdir(parents=True)
    assert run_main(argv, capsys) == (2, f"error: {run_dir}: no */metrics.tsv\n")
    assert run_main(["report"], capsys) == (1, "error: report needs --metrics files or --run-dir\n")


def test_report_accepts_an_infinite_threshold(tmp_path, capsys):
    # `eval --threshold inf` writes one: the all-negative prediction
    metrics = tmp_path / "m.tsv"
    write_metrics(metrics, [EvalRow("e1", "pa", None, float("inf"), 0.0, 0.0, 0.0)])
    assert read_metrics(metrics)[0].threshold == float("inf")
    assert main(["report", "--metrics", str(metrics)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[:3] == ["pa", "-", "1"]


def test_report_reads_a_metrics_file_given_twice_once(tmp_path, capsys):
    run = tmp_path / "run"
    for entity, recall in (("e1", 0.5), ("e2", 1.0)):
        (run / entity).mkdir(parents=True)
        write_metrics(run / entity / "metrics.tsv", [EvalRow(entity, "pa", None, 0.5, 1.0, recall, 2 / 3)])
    assert main(["report", "--run-dir", str(run)]) == 0
    expected = capsys.readouterr().out
    assert expected.splitlines()[1].split("\t")[:3] == ["pa", "-", "2"]
    e1 = str(run / "e1" / "metrics.tsv")
    for given in ([e1], [e1, e1], [e1, f"{run}/./e1/metrics.tsv"]):
        assert main(["report", "--run-dir", str(run), "--metrics", *given]) == 0
        assert capsys.readouterr().out == expected
    # every --metrics list counts: argparse keeps only the last of a plain nargs="*"
    assert main(["report", "--metrics", e1, "--metrics", str(run / "e2" / "metrics.tsv")]) == 0
    assert capsys.readouterr().out == expected
    assert main(["report", "--metrics", e1, e1]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[:3] == ["pa", "-", "1"]


# --- train ---------------------------------------------------------------------


def test_train_drops_the_raw_series_once_scaled(tmp_path, monkeypatch):
    data = tmp_path / "data"
    write_entity(data, "e1")
    raw, alive_in_training = [], []
    load, train = cli.load_series, cli.train_model

    def loaded(*args, **kwargs):
        series = load(*args, **kwargs)
        raw.append(weakref.ref(series.values))
        return series

    def trained(*args, **kwargs):
        alive_in_training.append(raw[0]() is not None)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "load_series", loaded)
    monkeypatch.setattr(cli, "train_model", trained)
    assert main(["train", "--data-root", str(data), "--out", str(tmp_path / "out")] + FAST) == 0
    assert alive_in_training == [False]


def test_train_missing_entity_exits_2_without_partial_output(tmp_path, capsys):
    data = tmp_path / "data"
    (data / "e1").mkdir(parents=True)  # no train.csv inside
    out = tmp_path / "out"
    rc = main(["train", "--data-root", str(data), "--entities", "e1", "--out", str(out)] + FAST)
    assert rc == 2
    assert "train.csv" in capsys.readouterr().err
    assert not (out / "e1" / "checkpoint.cadckpt").exists()


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1")
    rc = main(["train", "--data-root", str(data), "--out", str(tmp_path / "out"),
               "--set", "momentum=0.9"])
    assert rc == 1
    assert "momentum" in capsys.readouterr().err


def test_config_file_and_set_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("l = 12\nexperts = 4  # comment\nseed = 9\n")
    cfg = make_train_config(cfg_file, ["experts=6"])
    assert cfg.l == 12          # file beats default
    assert cfg.experts == 6     # --set beats file
    assert cfg.seed == 9
    assert cfg.h == 3           # untouched default


def test_config_file_bad_line_reports_position(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("l = 12\nnonsense\n")
    with pytest.raises(ConfigError, match="line 2"):
        make_train_config(cfg_file, [])


@pytest.mark.parametrize("line", ["h = ", "l = \x001"])
def test_bad_config_value_exits_1_naming_where_it_was_set(tmp_path, capsys, line):
    data = tmp_path / "data"
    write_entity(data, "e1")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"experts = 2\n{line}\n")
    key, _, value = line.partition(" = ")
    train = ["train", "--data-root", str(data), "--out", str(tmp_path / "out")]
    rc, err = run_main(train + ["--config", str(cfg_file)], capsys)
    assert rc == 1 and err == f"error: {cfg_file}: line 2: bad value {value!r} for key {key!r}\n"
    # a --set is named as given, and overrides the file's value before it is read
    rc, err = run_main(train + ["--config", str(cfg_file), "--set", f"{key}=x"], capsys)
    assert rc == 1 and err == f"error: --set {key}=x: bad value 'x' for key {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_epsilon_is_checked_wherever_both_gate_matrices_blend(tmp_path, capsys):
    blended = {"full", "no_selection", "no_conv"}
    for variant in VARIANTS:
        for epsilon in (0.3, 7.0, float("nan")):
            config = ModelConfig(variant=variant, epsilon=epsilon)
            if variant in blended:
                with pytest.raises(ConfigError, match=rf"^invalid model config: epsilon={epsilon} \("):
                    config.validate()
            else:
                config.validate()
    data = tmp_path / "data"
    write_entity(data, "e1")
    argv = ["train", "--data-root", str(data), "--out", str(tmp_path / "out"), *FAST,
            "--set", "variant=no_conv", "--set", "epsilon=7"]
    rc, err = run_main(argv, capsys)
    assert rc == 1 and err == "error: invalid model config: epsilon=7.0 (need 0.5 < epsilon <= 1)\n"
    assert not (tmp_path / "out").exists()


def test_train_score_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=0)
    write_entity(data, "e2", seed=5)
    out = tmp_path / "out"
    assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
    assert main(["score", "--run-dir", str(out), "--data-root", str(data)]) == 0
    assert main(["eval", "--run-dir", str(out), "--data-root", str(data)]) == 0
    capsys.readouterr()
    rc = main(["report", "--run-dir", str(out)])
    assert rc == 0
    report_lines = capsys.readouterr().out.splitlines()
    assert report_lines[1].split("\t")[2] == "2"  # two entities aggregated
    for entity in ("e1", "e2"):
        assert (out / entity / "checkpoint.cadckpt").is_file()
        assert (out / entity / "history.tsv").is_file()
        assert len(read_scores(out / entity / "scores.txt")) == 160
        assert len(read_metrics(out / entity / "metrics.tsv")) == 5


def test_cli_matches_in_process_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=2)
    out = tmp_path / "out"
    assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
    assert main(["score", "--run-dir", str(out), "--data-root", str(data)]) == 0
    assert main(["eval", "--run-dir", str(out), "--data-root", str(data), "--mode", "pa"]) == 0
    file_rows = read_metrics(out / "e1" / "metrics.tsv")

    # same pipeline, no files in between
    cfg = make_train_config(None, [kv for kv in FAST if kv != "--set"])
    train_series = load_series(data / "e1" / "train.csv")
    scaler = fit_minmax(train_series, clip=cfg.clip)
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    model, _ = train_model(model, make_windows(apply_minmax(scaler, train_series), cfg.l, cfg.h), cfg)
    test_series = load_series(data / "e1" / "test.csv", labels_path=data / "e1" / "test_label.csv")
    scored = score_series(model, test_series, scaler)
    hit = best_f1(scored, test_series.labels, mode="pa")

    assert file_rows[0].f1 == hit.f1
    assert file_rows[0].threshold == hit.threshold
    assert file_rows[0].precision == hit.precision
    assert file_rows[0].recall == hit.recall


def test_reruns_byte_identical(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=4)
    outputs = []
    for run in ("out_a", "out_b"):
        out = tmp_path / run
        assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
        assert main(["score", "--run-dir", str(out), "--data-root", str(data)]) == 0
        assert main(["eval", "--run-dir", str(out), "--data-root", str(data)]) == 0
        outputs.append({
            name: (out / "e1" / name).read_bytes()
            for name in ("checkpoint.cadckpt", "history.tsv", "scores.txt", "metrics.tsv")
        })
    assert outputs[0] == outputs[1]


def test_parallel_jobs_match_sequential(tmp_path, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)  # each process sets its own one-thread BLAS
    data = tmp_path / "data"
    write_entity(data, "e1", seed=6)
    write_entity(data, "e2", seed=7)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["train", "--data-root", str(data), "--out", str(seq)] + FAST) == 0
    assert main(["train", "--data-root", str(data), "--out", str(par), "--jobs", "2"] + FAST) == 0
    for entity in ("e1", "e2"):
        for name in ("checkpoint.cadckpt", "history.tsv"):
            assert (seq / entity / name).read_bytes() == (par / entity / name).read_bytes()


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces ``cli.ProcessPoolExecutor`` with a fake that records the
    worker count asked for and every submitted task, in order, and runs each
    task at once in this process, so no worker is ever started (and no
    worker initializer runs)."""
    calls = {"started": [], "submitted": []}

    class SerialPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            calls["started"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            calls["submitted"].append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return calls


def test_jobs_start_no_more_workers_than_entities(tmp_path, serial_pool, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    write_entity(data, "e1", seed=9)
    write_entity(data, "e2", seed=10)
    assert main(["train", "--data-root", str(data), "--out", str(out), "--jobs", "64"] + FAST) == 0
    assert main(["score", "--run-dir", str(out), "--data-root", str(data), "--jobs", "64"]) == 0
    assert serial_pool["started"] == [2, 2]
    assert (out / "e2" / "scores.txt").is_file()


def test_jobs_start_largest_entity_first(tmp_path, serial_pool, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    write_entity(data, "e1", seed=9)
    write_entity(data, "e2", t_train=520, t_test=320, seed=10)
    write_entity(data, "e3", seed=11)
    assert main(["train", "--data-root", str(data), "--out", str(out), "--jobs", "2"] + FAST) == 0
    train_out = capsys.readouterr().out
    assert main(["score", "--run-dir", str(out), "--data-root", str(data), "--jobs", "2"]) == 0
    score_out = capsys.readouterr().out
    train_tasks, score_tasks = serial_pool["submitted"][:3], serial_pool["submitted"][3:]
    assert train_tasks[0][0] == data / "e2" / "train.csv"
    assert score_tasks[0][0] == data / "e2" / "test.csv"
    for printed, verb in ((train_out, "trained"), (score_out, "scored")):
        names = [line.split()[1].rstrip(":") for line in printed.splitlines()]
        assert printed.startswith(verb) and names == ["e1", "e2", "e3"]


def test_an_entity_named_twice_runs_once(tmp_path, serial_pool, capsys):
    """Two workers given one entity would write its files at once."""
    data, out = tmp_path / "data", tmp_path / "out"
    write_entity(data, "e1", seed=9)
    write_entity(data, "e2", seed=10)
    twice = ["--entities", "e1,e2,e1", "--jobs", "2"]
    assert main(["train", "--data-root", str(data), "--out", str(out)] + twice + FAST) == 0
    train_out = capsys.readouterr().out
    assert main(["score", "--run-dir", str(out), "--data-root", str(data)] + twice) == 0
    score_out = capsys.readouterr().out
    for printed in (train_out, score_out):
        assert [line.split()[1].rstrip(":") for line in printed.splitlines()] == ["e1", "e2"]
    assert len(serial_pool["submitted"]) == 4
    assert main(["eval", "--run-dir", str(out), "--data-root", str(data), "--entities", "e1,e1", "--mode", "pa"]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == ["entity", "e1"]


def test_entity_names_run_once_per_directory_and_stay_under_the_data_root(tmp_path, capsys):
    """e1, e1/ and ./e1 name one directory and run it once; a name that is
    absolute, . or leads out through .. exits 1 naming it, before any work."""
    data, out = tmp_path / "data", tmp_path / "out"
    write_entity(data, "e1", seed=9)
    write_entity(tmp_path, "other", seed=10)  # what data/../other names
    commands = {
        "train": ["train", "--data-root", str(data), "--out", str(out)] + FAST,
        "score": ["score", "--run-dir", str(out), "--data-root", str(data)],
        "eval": ["eval", "--run-dir", str(out), "--data-root", str(data), "--mode", "pa"],
    }
    spellings = ["--entities", "e1,e1/,./e1,e1/./"]
    for argv in (commands["train"], commands["score"]):
        assert main(argv + spellings) == 0
        assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == ["e1:"]
    assert main(commands["eval"] + spellings) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == ["entity", "e1"]
    for name in ("../other", str(tmp_path / "other"), ".", "e1/..", "e1/../.."):
        for argv in commands.values():
            assert run_main(argv + ["--entities", f"e1,{name}"], capsys) == (
                1, f"error: --entities: {name!r} is not a directory under {data}\n")
    assert sorted(p.name for p in out.iterdir()) == ["e1"]
    assert sorted(p.name for p in (tmp_path / "other").iterdir()) == ["test.csv", "test_label.csv", "train.csv"]


def test_an_output_in_a_new_directory_makes_it(tmp_path, capsys):
    _, score = score_argv(tmp_path)
    scores, labels = tmp_path / "s" / "scores.txt", tmp_path / "labels.csv"
    assert main(score[:-1] + [str(scores)]) == 0 and os.listdir(scores.parent) == [scores.name]
    labels.write_text("0\n" * (len(read_scores(scores)) - 5) + "1\n" * 5)
    metrics, report = tmp_path / "m" / "metrics.tsv", tmp_path / "r" / "a" / "report.tsv"
    for argv, output in (
        (["eval", "--scores", str(scores), "--labels", str(labels), "--mode", "pa", "--output", str(metrics)], metrics),
        (["report", "--metrics", str(metrics), "--output", str(report)], report),
    ):
        rc, _ = run_main(argv, capsys)
        assert rc == 0 and output.is_file() and os.listdir(output.parent) == [output.name]
    assert read_metrics(metrics)[0].mode == "pa"


@pytest.mark.parametrize("command", ["score", "eval", "report"])
def test_an_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, command):
    _, score = score_argv(tmp_path)
    scores, labels, metrics = tmp_path / "s.txt", tmp_path / "l.txt", tmp_path / "metrics.tsv"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text("0\n1\n0\n")
    eval_ = ["eval", "--scores", str(scores), "--labels", str(labels), "--output"]
    assert main(eval_ + [str(metrics)]) == 0
    argv = {
        "score": score[:-1],
        "eval": eval_,
        "report": ["report", "--metrics", str(metrics), "--output"],
    }[command]
    a_dir, a_file, taken = tmp_path / "a_dir", tmp_path / "a_file", tmp_path / "t.tsv.tmp"
    a_dir.mkdir()
    a_file.write_bytes(b"kept\n")
    taken.mkdir()  # the temporary path of the output t.tsv
    for output, named, reason in ((a_dir, a_dir, "is a directory"),
                                  (a_file / "m.tsv", a_file / "m.tsv", "a parent is not a directory"),
                                  (tmp_path / "t.tsv", taken, "is a directory")):
        assert run_main(argv + [str(output)], capsys) == (2, f"error: {named}: {reason}\n")
    assert os.listdir(a_dir) == [] and a_file.read_bytes() == b"kept\n"
    assert os.listdir(taken) == [] and not (tmp_path / "t.tsv").exists()


def test_jobs_worker_failure_keeps_its_exit_code(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=12)
    bad = write_entity(data, "e2", t_train=520, seed=13) / "train.csv"
    lines = bad.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    bad.write_text("\n".join(lines) + "\n")
    for jobs in ("1", "2"):
        argv = ["train", "--data-root", str(data), "--out", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv + FAST) == 2
        captured = capsys.readouterr()
        assert str(bad) in captured.err and "'nan' at line 5, column 1" in captured.err
        # the entity that finished before the failure is still reported
        assert captured.out.startswith("trained e1:")


# the input a --jobs worker of each command reads per entity
JOBS_INPUT = {"train": "train.csv", "score": "test.csv"}


def jobs_cli(tmp_path, command):
    """A ``cadts train`` or ``cadts score`` subprocess with ``--jobs 2``, in
    a session of its own, on three entities that each take long enough to be
    stopped; the CLI and its two worker pids, once both have started (for
    ``score``, once both are scoring: a wide untrained checkpoint over a
    30,000-row test series per entity, about 2 s each on a 2-core Xeon)."""
    data, out = tmp_path / "data", tmp_path / "out"
    for i in range(3):
        write_entity(data, f"e{i}", t_test=30_000 if command == "score" else 160, seed=20 + i)
    if command == "train":
        argv = ["train", "--data-root", str(data), "--out", str(out), "--jobs", "2"] + FAST
        argv += ["--set", "max_epochs=40", "--set", "early_stop_patience=none"]
    else:
        config = ModelConfig(l=128, experts=16, embed_dim=256, tower_hidden=128)
        (out / "e0").mkdir(parents=True)
        save_checkpoint(build_model(config, n_metrics=3, rng_seed=0), None, out / "e0" / cli.CHECKPOINT_NAME)
        for entity in ("e1", "e2"):
            (out / entity).mkdir()
            os.link(out / "e0" / cli.CHECKPOINT_NAME, out / entity / cli.CHECKPOINT_NAME)
        argv = ["score", "--data-root", str(data), "--run-dir", str(out), "--jobs", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "cadts.cli", *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    workers = set()
    deadline = time.monotonic() + 30
    while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
        workers = children(proc.pid)
    # past loading its checkpoint and series, a worker's CPU time is scoring
    busy = command == "train"
    while not busy and time.monotonic() < deadline:
        time.sleep(0.05)
        busy = min(map(cpu_seconds, workers), default=1) >= 0.5
    return proc, workers


def stop_jobs_cli(proc, workers, stop) -> tuple[int, str]:
    """``stop(proc, workers)``, then the CLI's exit code and stderr; asserts
    that no worker runs 10 s later (a zombie counts as gone)."""
    try:
        assert len(workers) == 2
        stop(proc, workers)
        _, err = proc.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
        return proc.returncode, err.decode()
    finally:
        proc.kill()
        proc.communicate()
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)


needs_proc = pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")


jobs_commands = pytest.mark.parametrize("command", sorted(JOBS_INPUT))


@needs_proc
@jobs_commands
def test_jobs_workers_die_with_a_cli_stopped_by_sigterm(tmp_path, command):
    proc, workers = jobs_cli(tmp_path, command)
    rc, _ = stop_jobs_cli(proc, workers, lambda proc, _: proc.send_signal(signal.SIGTERM))
    assert rc == -signal.SIGTERM


@needs_proc
@jobs_commands
def test_jobs_killed_worker_exits_2_naming_an_entity(tmp_path, command):
    proc, workers = jobs_cli(tmp_path, command)
    rc, err = stop_jobs_cli(proc, workers, lambda _, workers: os.kill(min(workers), signal.SIGKILL))
    assert rc == 2 and err in {
        f"error: {tmp_path / 'data' / entity / JOBS_INPUT[command]}:"
        " a --jobs worker died before this entity finished\n"
        for entity in ("e0", "e1", "e2")
    }


def test_jobs_worker_dead_while_tasks_are_queued_exits_2_naming_the_first(tmp_path, capsys, monkeypatch):
    """A worker that dies before ``--jobs`` has queued every task fails the
    first unfinished task, as a later death does, not with a raw
    BrokenProcessPool from ``submit``."""
    data = tmp_path / "data"
    for i in range(3):
        write_entity(data, f"e{i}", seed=30 + i)
    submit, queued = cli.ProcessPoolExecutor.submit, []

    def submit_then_kill_a_worker(pool, *args):
        queued.append(submit(pool, *args))
        if len(queued) == 1:  # the workers start with the first task
            os.kill(min(p.pid for p in multiprocessing.active_children()), signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:  # until the pool has seen it
                time.sleep(0.01)
        return queued[-1]

    monkeypatch.setattr(cli.ProcessPoolExecutor, "submit", submit_then_kill_a_worker)
    argv = ["train", "--data-root", str(data), "--out", str(tmp_path / "out"), "--jobs", "2"] + FAST
    assert run_main(argv, capsys) == (
        2, f"error: {data / 'e0' / 'train.csv'}: a --jobs worker died before this entity finished\n")
    assert len(queued) == 1


@needs_proc
@jobs_commands
def test_jobs_ctrl_c_exits_130_with_one_line(tmp_path, command):
    def ctrl_c(proc, workers):
        # once the workers have set up (they ignore SIGINT from then on),
        # signal the whole process group, as a terminal's Ctrl-C does
        deadline = time.monotonic() + 10
        while not all(map(ignores_sigint, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)

    rc, err = stop_jobs_cli(*jobs_cli(tmp_path, command), ctrl_c)
    assert rc == 130 and err == "error: interrupted\n"


def test_jobs_below_one_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=11)
    for jobs in ("0", "-2"):
        argv = ["train", "--data-root", str(data), "--out", str(tmp_path / "out"), "--jobs", jobs]
        assert main(argv + FAST) == 1
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        argv = ["score", "--checkpoint", str(tmp_path / "c"), "--input", str(data / "e1" / "test.csv"),
                "--output", str(tmp_path / "s.txt"), "--jobs", jobs]
        assert main(argv) == 1
        assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_root_env_var(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=8)
    monkeypatch.setenv("CADTS_OUT_ROOT", str(tmp_path / "from_env"))
    assert main(["train", "--data-root", str(data)] + FAST) == 0
    assert (tmp_path / "from_env" / "e1" / "checkpoint.cadckpt").is_file()


def test_checkpoint_header_records_config(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=9)
    out = tmp_path / "out"
    assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
    model, scaler = load_checkpoint(out / "e1" / "checkpoint.cadckpt")
    assert model.config.experts == 2
    assert scaler is not None


def replace_header_value(path, key, value):
    """Rewrite one key=value line of a checkpoint header, keeping the
    length prefix consistent so only the value itself is corrupt."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    lines = blob[16 : 16 + n].decode("utf-8").splitlines()
    assert any(line.startswith(f"{key}=") for line in lines)
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + n :])


def score_argv(tmp_path, model=None):
    """A saved untrained checkpoint (or ``model``) and the argv that scores
    a 3-metric series with it."""
    cfg = make_train_config(None, [kv for kv in FAST if kv != "--set"])
    series = make_sines(60, 3, seed=12)
    model = model or build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    checkpoint = tmp_path / "model.cadckpt"
    save_checkpoint(model, fit_minmax(series), checkpoint, cfg)
    test_csv = tmp_path / "test.csv"
    np.savetxt(test_csv, series.values, fmt="%.17g", delimiter=",")
    return checkpoint, ["score", "--checkpoint", str(checkpoint), "--input", str(test_csv),
                        "--output", str(tmp_path / "scores.txt")]


@pytest.mark.parametrize(
    "key, value",
    [("l", "1x"), ("epsilon", "abc"), ("scaler_clip", "x"), ("scaler_min", "oops")],
)
def test_score_corrupt_header_value_exits_2(tmp_path, capsys, key, value):
    checkpoint, argv = score_argv(tmp_path)
    assert main(argv) == 0

    replace_header_value(checkpoint, key, value)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err and repr(key) in err and repr(value) in err


@pytest.mark.parametrize(
    "key, value, reason",
    [("l", "0", "l=0"), ("epsilon", "0.3", "epsilon=0.3"), ("variant", "fUll", "fUll"),
     ("scaler", "linmax", "linmax"), ("scaler_max", "1.0,2.0", "2 maxs for 3 metrics")],
)
def test_score_invalid_header_value_exits_2(tmp_path, capsys, key, value, reason):
    # the values parse, but no model (or scaler) has them
    checkpoint, argv = score_argv(tmp_path)
    replace_header_value(checkpoint, key, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err and reason in err
    assert not (tmp_path / "scores.txt").exists()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_score_overflowing_checkpoint_exits_3_naming_it(tmp_path, capsys, dtype):
    # finite weights whose products overflow, as a bit flip in an exponent gives
    cfg = make_train_config(None, [kv for kv in FAST if kv != "--set"] + [f"dtype={dtype}"])
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    model.params["tower.w2"].data[...] = np.finfo(dtype).max / 4
    checkpoint, argv = score_argv(tmp_path, model)
    rc, err = run_main(argv, capsys)  # no RuntimeWarning either
    assert rc == 3
    assert err.startswith(f"error: {argv[4]}: non-finite prediction error at timestamp ")
    assert err.endswith(f" (checkpoint {checkpoint})\n") and err.count("\n") == 1
    assert not (tmp_path / "scores.txt").exists()


def test_score_run_dir_without_a_checkpoint_exits_2_naming_it(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    write_entity(data, "e1")
    checkpoint = run / "e1" / "checkpoint.cadckpt"
    argv = ["score", "--run-dir", str(run), "--data-root", str(data)]
    assert run_main(argv, capsys) == (2, f"error: {checkpoint}: not found\n")
    checkpoint.mkdir(parents=True)
    assert run_main(argv, capsys) == (2, f"error: {checkpoint}: is a directory\n")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A data root with one entity ``e1`` and a run dir holding its trained
    checkpoint and, once scored, its scores."""
    root = tmp_path_factory.mktemp("trained")
    data, run = root / "data", root / "run"
    write_entity(data, "e1")
    assert main(["train", "--data-root", str(data), "--out", str(run)] + FAST) == 0
    assert main(["score", "--run-dir", str(run), "--data-root", str(data)]) == 0
    return data, run


@pytest.mark.parametrize("command, form, flag", [
    ("score", "--data-root", "--input"), ("score", "--data-root", "--output"),
    ("score", "--checkpoint", "--data-root"), ("score", "--checkpoint", "--run-dir"),
    ("score", "--checkpoint", "--entities"),
    ("eval", "--data-root", "--labels"), ("eval", "--data-root", "--entity"),
    ("eval", "--data-root", "--output"), ("eval", "--scores", "--data-root"),
    ("eval", "--scores", "--run-dir"), ("eval", "--scores", "--entities"),
])
def test_flag_of_the_other_form_exits_1_naming_it(trained_run, tmp_path, capsys, command, form, flag):
    """``score`` and ``eval`` each read either one file set or a run dir; a
    flag that only the other form reads is refused, not ignored."""
    data, run = trained_run
    before = sorted(run.rglob("*"))
    given = {"--data-root": data, "--run-dir": run, "--checkpoint": run / "e1" / "checkpoint.cadckpt",
             "--input": data / "e1" / "test.csv", "--scores": run / "e1" / "scores.txt",
             "--labels": data / "e1" / "test_label.csv", "--entity": "e1", "--output": tmp_path / "out.txt",
             "--entities": "e1"}
    single = {"score": ("--checkpoint", "--input", "--output"), "eval": ("--scores", "--labels")}[command]
    names = (single if form != "--data-root" else ("--run-dir", "--data-root")) + (flag,)
    argv = [command] + [arg for name in names for arg in (name, str(given[name]))]
    assert run_main(argv, capsys) == (1, f"error: {command} with {form} takes no {flag}\n")
    assert sorted(run.rglob("*")) == before and not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv, message", [
    (["score", "--checkpoint", "c", "--output", "o"], "score with --checkpoint needs --input and --output"),
    (["score", "--checkpoint", "c", "--input", "i"], "score with --checkpoint needs --input and --output"),
    (["score", "--checkpoint", "c", "--run-dir", "r"], "score with --checkpoint takes no --run-dir"),
    (["eval", "--scores", "s"], "eval with --scores needs --labels"),
    (["eval", "--scores", "s", "--data-root", "d"], "eval with --scores takes no --data-root"),
    (["score", "--input", "i", "--run-dir", "r"], "score needs either --checkpoint or --run-dir and --data-root"),
    (["eval", "--labels", "l"], "eval needs either --scores or --run-dir and --data-root"),
])
def test_a_form_without_its_flags_exits_1_naming_what_it_needs(capsys, argv, message):
    """A form refuses a flag of the other form before it asks for its own."""
    assert run_main(argv, capsys) == (1, f"error: {message}\n")


@pytest.mark.parametrize("command, marker", [("train", "train.csv"), ("score", "test.csv"),
                                             ("eval", "test_label.csv")])
def test_an_entity_list_with_nothing_to_run_exits_naming_why(tmp_path, capsys, command, marker):
    data = tmp_path / "data"
    data.mkdir()
    argv = [command, "--data-root", str(data), "--out" if command == "train" else "--run-dir", str(tmp_path / "r")]
    for _ in range(2):  # an empty data root, then one whose only directory lacks the marker
        assert run_main(argv, capsys) == (2, f"error: no entity directories with {marker} under {data}\n")
        (data / "e1").mkdir(exist_ok=True)
    assert run_main(argv + ["--entities", "e1"], capsys) == (2, f"error: {data / 'e1' / marker}: not found\n")
    assert run_main(argv + ["--entities", ","], capsys) == (1, "error: empty entity list\n")
    assert not (tmp_path / "r").exists()


def test_score_version_1_checkpoint_exits_2_asking_to_retrain(tmp_path, capsys):
    checkpoint, argv = score_argv(tmp_path)
    replace_header_value(checkpoint, "version", "1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{checkpoint}: checkpoint version 1 is no longer read; retrain" in err
    assert not (tmp_path / "scores.txt").exists()


def test_score_checkpoint_of_an_older_version_or_a_flipped_byte_exits_2_naming_why(tmp_path, capsys):
    checkpoint, argv = score_argv(tmp_path)
    blob = checkpoint.read_bytes()
    for version in ("2", "3"):
        checkpoint.write_bytes(blob)
        replace_header_value(checkpoint, "version", version)
        assert run_main(argv, capsys) == (
            2, f"error: {checkpoint}: checkpoint version {version} is no longer read; retrain\n")
    for position in (len(blob) - 5, len(blob) - 1, blob.index(b"\nseed=") + 6):  # a value, the CRC, the header
        flipped = bytearray(blob)
        flipped[position] ^= 0x01
        checkpoint.write_bytes(flipped)
        assert run_main(argv, capsys) == (2, f"error: {checkpoint}: checksum mismatch\n")
    assert not (tmp_path / "scores.txt").exists()


def test_score_non_finite_prediction_exits_3(tmp_path, capsys):
    cfg = make_train_config(None, [kv for kv in FAST if kv != "--set"])
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    model.params["tower.b2"].data[1] = np.inf
    checkpoint, argv = score_argv(tmp_path, model)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "timestamp 8" in err and "test.csv" in err
    assert not (tmp_path / "scores.txt").exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_numeric_failure_exit_code(tmp_path, capsys):
    # float32 forward overflows on huge unscaled inputs -> non-finite loss
    data = tmp_path / "data"
    entity = data / "e1"
    entity.mkdir(parents=True)
    np.savetxt(entity / "train.csv", np.full((80, 2), 1e30), fmt="%.17g", delimiter=",")
    rc = main(["train", "--data-root", str(data), "--out", str(tmp_path / "out"),
               "--set", "scale=false", "--set", "l=8", "--set", "h=1",
               "--set", "experts=2", "--set", "kernels=4", "--set", "embed_dim=16",
               "--set", "tower_hidden=8", "--set", "batch=16"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "epoch 1" in err
    assert f"error: {entity / 'train.csv'}: " in err
    assert not (tmp_path / "out" / "e1" / "checkpoint.cadckpt").exists()


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1  # missing --data-root
    assert "data-root" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explode", "export-embeddings"])
def test_unknown_subcommand(capsys, command):
    assert main([command]) == 1
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


# --- inputs that cannot be opened --------------------------------------------------


# every reader of an input file, and each (command, flag) that hands it one
READERS = {
    "load_series": (load_series, [("score", "--input")]),
    "load_labels": (load_labels, [("eval", "--labels")]),
    "read_scores": (read_scores, [("eval", "--scores")]),
    "read_metrics": (read_metrics, [("report", "--metrics")]),
    "load_checkpoint": (load_checkpoint, [("score", "--checkpoint")]),
    "make_train_config": (make_train_config, [("train", "--config")]),
}


def valid_argv(command, root):
    """An argv of ``command`` whose inputs, made under ``root``, all open."""
    root.mkdir()
    if command == "score":
        return score_argv(root)[1]
    if command == "eval":
        (root / "s.txt").write_text("0.1\n0.9\n")
        (root / "l.txt").write_text("0\n1\n")
        return ["eval", "--scores", str(root / "s.txt"), "--labels", str(root / "l.txt")]
    if command == "report":
        write_metrics(root / "m.tsv", [EvalRow("e1", "pa", None, 0.5, 1.0, 0.5, 2 / 3)])
        return ["report", "--metrics", str(root / "m.tsv")]
    write_entity(root / "data", "e1")
    (root / "run.cfg").write_text("seed = 3\n")
    return ["train", "--data-root", str(root / "data"), "--out", str(root / "out"),
            "--config", str(root / "run.cfg")] + FAST


@pytest.mark.parametrize("kind, reason", [("missing", "not found"), ("directory", "is a directory")])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_an_input_that_does_not_open_exits_2_naming_it(tmp_path, capsys, reader, kind, reason):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    read, uses = READERS[reader]
    with pytest.raises(DataError) as raised:
        read(path)
    assert str(raised.value) == f"{path}: {reason}"
    for command, flag in uses:
        argv = valid_argv(command, tmp_path / command)
        argv[argv.index(flag) + 1] = str(path)
        assert run_main(argv, capsys) == (2, f"error: {path}: {reason}\n")


@pytest.mark.parametrize("command", ["train", "score", "eval"])
def test_a_data_root_that_is_missing_or_a_file_exits_2_naming_it(tmp_path, capsys, command):
    root = tmp_path / "data"
    argv = [command, "--data-root", str(root), "--run-dir", str(tmp_path / "runs")]
    if command == "train":
        argv[-2] = "--out"
    assert run_main(argv, capsys) == (2, f"error: {root}: not found\n")
    root.write_text("")
    assert run_main(argv, capsys) == (2, f"error: {root}: is not a directory\n")


# --- text that is not UTF-8 ------------------------------------------------------


def put_bad_byte(path, line):
    """Insert a byte that starts no UTF-8 character at the start of ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("line", [1, 3])  # the header line is read on its own
def test_non_utf8_series_exits_2_naming_the_line(tmp_path, capsys, line):
    data = tmp_path / "data"
    write_entity(data, "e1")
    put_bad_byte(data / "e1" / "train.csv", line)
    assert main(["train", "--data-root", str(data), "--out", str(tmp_path / "out")] + FAST) == 2
    err = capsys.readouterr().err
    assert f"{data / 'e1' / 'train.csv'}: line {line}: byte 0xe9 is not UTF-8 text" in err
    assert "Traceback" not in err


def test_non_utf8_config_file_exits_1_naming_the_line(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"l = 12\nseed = 9 # caf\xe9\n")
    argv = ["train", "--data-root", str(data), "--out", str(tmp_path / "out"), "--config", str(cfg_file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{cfg_file}: line 2: byte 0xe9 is not UTF-8 text" in err
    assert "Traceback" not in err


def test_non_utf8_metrics_file_exits_2_naming_the_line(tmp_path, capsys):
    metrics = tmp_path / "m.tsv"
    write_metrics(metrics, [EvalRow("e1", "pa", None, 0.5, 1.0, 0.5, 2 / 3)])
    put_bad_byte(metrics, 2)
    assert main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{metrics}: line 2: byte 0xe9 is not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["labels", "scores"])
def test_non_utf8_eval_input_exits_2_naming_the_line(tmp_path, capsys, which):
    files = {"scores": tmp_path / "s.txt", "labels": tmp_path / "l.txt"}
    files["scores"].write_text("0.1\n0.9\n0.2\n")
    files["labels"].write_text("0\n1\n0\n")
    put_bad_byte(files[which], 3)
    assert main(["eval", "--scores", str(files["scores"]), "--labels", str(files["labels"])]) == 2
    err = capsys.readouterr().err
    assert f"{files[which]}: line 3: byte 0xe9 is not UTF-8 text" in err
    assert "Traceback" not in err


# --- eval on damaged inputs --------------------------------------------------------


def run_main(argv, capsys):
    """``cadts`` in process: its exit code and stderr, with every warning it
    raises recorded and none expected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    assert caught == [] and "Warning:" not in err and "Traceback" not in err
    return rc, err


def run_eval(scores, labels, capsys, *extra):
    return run_main(["eval", "--scores", str(scores), "--labels", str(labels), *extra], capsys)


def test_two_scores_on_one_line_exit_2(tmp_path, capsys):
    scores, labels = tmp_path / "s.txt", tmp_path / "l.txt"
    scores.write_text("0.1\n0.9 0.8\n0.2\n")
    labels.write_text("0\n1\n0\n")
    rc, err = run_eval(scores, labels, capsys)
    assert rc == 2 and f"{scores}: value '0.9 0.8' at line 2, column 1" in err


def test_damaged_first_score_exits_2_naming_it(tmp_path, capsys):
    scores, labels = tmp_path / "s.txt", tmp_path / "l.txt"
    scores.write_text("0.1#3\n0.2\n")
    labels.write_text("0\n1\n")
    rc, err = run_eval(scores, labels, capsys)
    assert rc == 2 and f"{scores}: value '0.1#3' at line 1, column 1" in err
    assert "labels for" not in err


def test_damaged_first_series_row_exits_2_naming_it(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1")
    (data / "e1" / "train.csv").write_text("1,2#\n3,4\n5,6\n")
    assert main(["train", "--data-root", str(data), "--out", str(tmp_path / "out")] + FAST) == 2
    err = capsys.readouterr().err
    assert f"{data / 'e1' / 'train.csv'}: value '2#' at line 1, column 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [("", "empty file"), ("0\nnan\n0\n", "value 'nan' at line 2")])
def test_blank_or_nan_label_file_exits_2_without_a_warning(tmp_path, capsys, text, message):
    scores, labels = tmp_path / "s.txt", tmp_path / "l.txt"
    scores.write_text("0.1\n0.9\n0.2\n")
    labels.write_text(text)
    rc, err = run_eval(scores, labels, capsys)
    assert rc == 2 and f"{labels}: {message}" in err


@st.composite
def damage(draw, blob: bytes):
    """``blob`` with one fault: a flipped bit, a cut, an inserted 0xff or
    NUL byte, CR-only line ends, or no bytes at all; None for a directory
    in the file's place."""
    kind = draw(st.sampled_from(["flip", "cut", "insert", "cr", "empty", "directory"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1 :]
    if kind == "insert":
        return blob[:at] + draw(st.sampled_from([b"\xff", b"\x00"])) + blob[at:]
    return {"cut": blob[:at], "cr": blob.replace(b"\n", b"\r"), "empty": b"", "directory": None}[kind]


def test_eval_on_damaged_inputs_exits_0_or_2_cleanly(tmp_path_factory, capsys):
    rng = np.random.default_rng(13)
    labels = np.zeros(40, dtype=int)
    labels[[5, 6, 7, 20, 31, 32]] = 1
    valid = {
        "scores": "".join(f"{v!r}\n" for v in rng.random(40).tolist()).encode(),
        "labels": "".join(f"{v}\n" for v in labels).encode(),
    }

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["scores", "labels"]), st.data())
    def check(which, draw):
        root = tmp_path_factory.mktemp("eval")
        paths = {name: root / f"{name}.txt" for name in valid}
        for name, blob in valid.items():
            if name == which:
                blob = draw.draw(damage(blob))
            if blob is None:
                paths[name].mkdir()
            else:
                paths[name].write_bytes(blob)
        out = root / "metrics.tsv"
        rc, _ = run_eval(paths["scores"], paths["labels"], capsys, "--output", str(out))
        assert rc in (0, 2)
        if rc == 0:
            rows = read_metrics(out)
            assert len(rows) == 5
            assert np.isfinite([[r.precision, r.recall, r.f1] for r in rows]).all()

    check()


def test_score_on_a_damaged_input_exits_0_to_3_cleanly(tmp_path_factory, capsys):
    """``score`` on a damaged ``--input`` CSV: exit 0 to 3, no traceback or
    warning, and finite output on 0."""
    checkpoint, argv = score_argv(tmp_path_factory.mktemp("model"))
    valid = Path(argv[argv.index("--input") + 1]).read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(damage(valid))
    def check(blob):
        root = tmp_path_factory.mktemp("score")
        input_csv, out = root / "test.csv", root / "out.txt"
        if blob is None:
            input_csv.mkdir()
        else:
            input_csv.write_bytes(blob)
        rc, _ = run_main(["score", "--checkpoint", str(checkpoint), "--input", str(input_csv),
                          "--output", str(out)], capsys)
        assert rc in (0, 1, 2, 3)
        if rc == 0:
            lines = out.read_text().splitlines()
            assert len(lines) > 0 and np.isfinite(np.array(lines, dtype=np.float64)).all()

    check()


def trained_numbers(out) -> np.ndarray:
    """The parameters of ``out``'s e1 checkpoint and the numbers of its
    ``history.tsv``, as one float64 array."""
    model, _ = load_checkpoint(out / "e1" / "checkpoint.cadckpt")
    rows = (out / "e1" / "history.tsv").read_text().splitlines()[1:-1]
    cells = [c for row in rows for c in row.split("\t") if c != "-"]
    return np.concatenate([np.asarray(cells, dtype=np.float64)]
                          + [p.data.astype(np.float64).ravel() for p in model.params.values()])


def report_numbers(out) -> np.ndarray:
    """The F1, P, R and F1* cells of a ``report --output`` file."""
    rows = out.read_text().splitlines()[1:]
    return np.array([row.split("\t")[3:] for row in rows], dtype=np.float64)


@pytest.mark.parametrize("target, examples", [("train.csv", 40), ("--config", 40),
                                              ("--checkpoint", 100), ("--metrics", 100)])
def test_a_damaged_input_exits_0_to_3_cleanly(tmp_path_factory, capsys, target, examples):
    """``train`` on a damaged ``train.csv`` or ``--config``, ``score`` on a
    damaged ``--checkpoint`` and ``report`` on a damaged ``--metrics``:
    exit 0 to 3, no traceback or warning, finite output on 0, an exit 2
    that names the file, an exit 3 of ``score`` that names the checkpoint,
    and "is a directory" for a directory in the file's place."""
    base = tmp_path_factory.mktemp("valid")
    data = base / "data"
    write_entity(data, "e1", t_train=120)
    config = "".join(f"{kv.replace('=', ' = ')}\n" for kv in FAST if kv != "--set")
    checkpoint, score = score_argv(base)
    write_metrics(base / "m.tsv", [EvalRow("e1", "raw", None, 0.25, 0.5, 1.0, 2 / 3),
                                   EvalRow("e1", "kpa", 10, 0.5, 1.0, 0.5, 2 / 3)])
    valid = {"train.csv": (data / "e1" / "train.csv").read_bytes(), "--config": config.encode(),
             "--checkpoint": checkpoint.read_bytes(), "--metrics": (base / "m.tsv").read_bytes()}

    def argv(path, out):
        train = ["train", "--entities", "e1", "--out", str(out)]
        if target == "train.csv":
            return train + ["--data-root", str(path.parents[1])] + FAST + ["--set", "max_epochs=1"]
        if target == "--config":
            return train + ["--data-root", str(data), "--config", str(path), "--set", "max_epochs=1"]
        if target == "--checkpoint":
            return score[:2] + [str(path)] + score[3:-1] + [str(out)]
        return ["report", "--metrics", str(path), "--output", str(out)]

    def finite_output(out):
        if target == "--checkpoint":
            return read_scores(out)
        return report_numbers(out) if target == "--metrics" else trained_numbers(out)

    @settings(max_examples=examples, deadline=None)
    @given(damage(valid[target]))
    def check(blob):
        root = tmp_path_factory.mktemp("damaged")
        path = root / "data" / "e1" / "train.csv" if target == "train.csv" else root / "input"
        path.parent.mkdir(parents=True, exist_ok=True)
        if blob is None:
            path.mkdir()
        else:
            path.write_bytes(blob)
        out = root / "out"
        rc, err = run_main(argv(path, out), capsys)
        assert rc in (0, 1, 2, 3)
        if rc == 2:
            assert f"error: {path}: " in err
        if rc == 3 and target == "--checkpoint":
            assert f"(checkpoint {path})" in err
        if blob is None:
            assert rc == 2 and f"{path}: is a directory" in err
        if rc == 0:
            assert np.isfinite(finite_output(out)).all()

    check()
