"""Operator surface: subcommands, exit codes, file/in-process parity."""

import struct
from concurrent.futures import Future

import numpy as np
import pytest

from cadts import cli
from cadts.cli import main, make_train_config
from cadts.data import load_series, make_windows, fit_minmax, apply_minmax
from cadts.errors import ConfigError
from cadts.evaluate import best_f1, read_metrics, read_scores, score_series
from cadts.model import build_model
from cadts.train import load_checkpoint, save_checkpoint, train_model

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


def test_eval_all_negative_labels_is_data_error(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    labels = tmp_path / "l.txt"
    scores.write_text("0.1\n0.2\n")
    labels.write_text("0\n0\n")
    rc = main(["eval", "--scores", str(scores), "--labels", str(labels)])
    assert rc == 2
    assert "positive" in capsys.readouterr().err


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


# --- train ---------------------------------------------------------------------


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


def test_parallel_jobs_match_sequential(tmp_path):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=6)
    write_entity(data, "e2", seed=7)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["train", "--data-root", str(data), "--out", str(seq)] + FAST) == 0
    assert main(["train", "--data-root", str(data), "--out", str(par), "--jobs", "2"] + FAST) == 0
    for entity in ("e1", "e2"):
        a = (seq / entity / "checkpoint.cadckpt").read_bytes()
        b = (par / entity / "checkpoint.cadckpt").read_bytes()
        assert a == b


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces ``cli.ProcessPoolExecutor`` with a fake that records the
    worker count asked for and every submitted task, in order, and runs each
    task at once in this process, so no worker is ever started."""
    calls = {"started": [], "submitted": []}

    class SerialPool:
        def __init__(self, max_workers):
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
    assert train_tasks[0][2] == "e2"
    assert score_tasks[0][1] == str(data / "e2" / "test.csv")
    for printed, verb in ((train_out, "trained"), (score_out, "scored")):
        names = [line.split()[1].rstrip(":") for line in printed.splitlines()]
        assert printed.startswith(verb) and names == ["e1", "e2", "e3"]


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
    [("l", "1x"), ("epsilon", "abc"), ("scaler_clip", "x"), ("scaler_min", "oops"), ("params", "")],
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


def test_score_non_finite_prediction_exits_3(tmp_path, capsys):
    cfg = make_train_config(None, [kv for kv in FAST if kv != "--set"])
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    model.params["tower.b2"].data[1] = np.inf
    checkpoint, argv = score_argv(tmp_path, model)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "timestamp 8" in err and "test.csv" in err
    assert not (tmp_path / "scores.txt").exists()


# --- export-embeddings ------------------------------------------------------------


def test_export_embeddings_row_counts(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=10)
    out = tmp_path / "out"
    assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
    emb = tmp_path / "emb.tsv"
    rc = main(["export-embeddings", "--checkpoint", str(out / "e1" / "checkpoint.cadckpt"),
               "--input", str(data / "e1" / "test.csv"), "--output", str(emb), "--stride", "16"])
    assert rc == 0
    lines = emb.read_text().splitlines()
    model, scaler = load_checkpoint(out / "e1" / "checkpoint.cadckpt")
    n_windows = len(range(0, 160 - 8 - 1 + 1, 16))
    assert len(lines) == n_windows * model.params["expert.ff1_w"].shape[0]
    first = lines[0].split("\t")
    assert first[0] == "0" and first[1] == "0"
    assert len(first) == 2 + model.config.embed_dim
    # expert ids cycle per window
    assert [line.split("\t")[1] for line in lines[:2]] == ["0", "1"]


def test_export_embeddings_metric_mismatch(tmp_path, capsys):
    data = tmp_path / "data"
    write_entity(data, "e1", seed=11)
    out = tmp_path / "out"
    assert main(["train", "--data-root", str(data), "--out", str(out)] + FAST) == 0
    narrow = tmp_path / "narrow.csv"
    np.savetxt(narrow, np.random.default_rng(0).random((40, 2)), fmt="%.17g", delimiter=",")
    rc = main(["export-embeddings", "--checkpoint", str(out / "e1" / "checkpoint.cadckpt"),
               "--input", str(narrow), "--output", str(tmp_path / "emb.tsv")])
    assert rc == 2
    assert "metrics" in capsys.readouterr().err


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
    assert not (tmp_path / "out" / "e1" / "checkpoint.cadckpt").exists()


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1  # missing --data-root
    assert "data-root" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["explode"]) == 1
