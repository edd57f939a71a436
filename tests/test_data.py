"""Loader, scaler and windowing contracts."""

import codecs
import errno
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cadts import cores, data
from cadts.data import (
    SeriesMatrix,
    apply_minmax,
    fit_minmax,
    load_labels,
    load_series,
    make_windows,
)
from cadts.errors import DataError
from cadts.evaluate import read_scores

from _procs import running


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# --- load_series ------------------------------------------------------------


def test_load_plain_csv(tmp_path):
    p = write(tmp_path, "train.csv", "1,2\n3,4\n5,6\n")
    series = load_series(p)
    assert series.shape == (3, 2)
    np.testing.assert_array_equal(series.values, [[1, 2], [3, 4], [5, 6]])
    assert series.labels is None


def test_load_skips_single_header_row(tmp_path):
    p = write(tmp_path, "train.csv", "m1,m2\n1,2\n3,4\n")
    series = load_series(p)
    assert series.shape == (2, 2)
    np.testing.assert_array_equal(series.values, [[1, 2], [3, 4]])


@pytest.mark.parametrize("header", ["m1,m2", "timestamp_(min),feature_0", "cpu r, -load", "info,nanos"])
def test_named_header_row_is_skipped(tmp_path, header):
    p = write(tmp_path, "train.csv", f"{header}\n1,2\n3,4\n")
    np.testing.assert_array_equal(load_series(p).values, [[1, 2], [3, 4]])


@pytest.mark.parametrize("first, message", [
    ("1,2#", "value '2#' at line 1, column 2"),
    ("0.1#3,4", "value '0.1#3' at line 1, column 1"),
    ("m1,2", "value 'm1' at line 1, column 1"),
    ("nan,x", "value 'nan' at line 1, column 1"),
])
def test_damaged_first_row_is_a_bad_cell_not_a_header(tmp_path, first, message):
    """A first line with a cell that is a number, or starts like one, is data."""
    p = write(tmp_path, "train.csv", f"{first}\n3,4\n5,6\n")
    with pytest.raises(DataError, match=rf"train\.csv: {message}"):
        load_series(p)


def test_load_with_labels(tmp_path):
    p = write(tmp_path, "test.csv", "1\n2\n3\n")
    lp = write(tmp_path, "test_label.csv", "0\n1\n1\n")
    series = load_series(p, labels_path=lp)
    assert series.shape == (3, 1)
    np.testing.assert_array_equal(series.labels, [0, 1, 1])


def test_ragged_row_reports_line(tmp_path):
    p = write(tmp_path, "bad.csv", "1,2\n3,4,5\n6,7\n")
    with pytest.raises(DataError, match="line 2"):
        load_series(p)


def test_non_numeric_cell_reports_row_and_column(tmp_path):
    p = write(tmp_path, "bad.csv", "1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"line 2, column 2"):
        load_series(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_reports_row_and_column(tmp_path, cell):
    p = write(tmp_path, "bad.csv", f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(DataError, match=rf"bad\.csv: value '{cell}' at line 3, column 2"):
        load_series(p)


def test_label_length_mismatch(tmp_path):
    p = write(tmp_path, "test.csv", "1\n2\n3\n")
    lp = write(tmp_path, "test_label.csv", "0\n1\n")
    with pytest.raises(DataError, match="2 labels for 3 timestamps"):
        load_series(p, labels_path=lp)


def test_non_binary_labels_rejected(tmp_path):
    lp = write(tmp_path, "test_label.csv", "0\n2\n")
    with pytest.raises(DataError, match="0 or 1"):
        load_labels(lp)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_series(tmp_path / "absent.csv")


def test_empty_file(tmp_path):
    p = write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match=": empty file"):
        load_series(p)


def test_header_only_file(tmp_path):
    p = write(tmp_path, "hdr.csv", "m1,m2\n")
    with pytest.raises(DataError, match="no data"):
        load_series(p)


def test_blank_only_file_is_empty(tmp_path):
    p = write(tmp_path, "blank.csv", "\n\n")
    with pytest.raises(DataError, match="empty file"):
        load_series(p)


def test_header_only_file_raises_no_warning(tmp_path):
    p = write(tmp_path, "hdr.csv", "m1,m2\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="no data rows"):
            load_series(p)
    assert caught == []


def test_blank_first_line_is_the_header(tmp_path):
    p = write(tmp_path, "lead.csv", "\n1,2\n3,4\n")
    np.testing.assert_array_equal(load_series(p).values, [[1, 2], [3, 4]])
    # the blank line is skipped as the header, so a named row below it is data
    p = write(tmp_path, "named.csv", "\nm1,m2\n1,2\n")
    with pytest.raises(DataError, match="value 'm1' at line 2, column 1"):
        load_series(p)


def test_successful_load_reads_the_file_once(tmp_path, monkeypatch):
    p = write(tmp_path, "train.csv", "m1,m2\n1,2\n3,4\n")

    def no_second_read(self, *args, **kwargs):
        raise AssertionError(f"{self} read again as text")

    real_open, opened = data.open_input, []

    def counted_open(path):
        opened.append(Path(path))
        return real_open(path)

    monkeypatch.setattr(data, "open_input", counted_open)
    monkeypatch.setattr(Path, "read_text", no_second_read)
    monkeypatch.setattr(Path, "read_bytes", no_second_read)
    values = load_series(p).values
    monkeypatch.undo()  # pytest's failure report reads files through Path
    np.testing.assert_array_equal(values, [[1, 2], [3, 4]])
    assert opened == [p]


def assert_load_peak_within_twice_the_result(tmp_path):
    values = np.random.default_rng(8).random((5000, 20))
    p = tmp_path / "big.csv"
    np.savetxt(p, values, delimiter=",", header="m" + ",m".join(map(str, range(1, 20))), comments="")
    tracemalloc.start()
    try:
        series = load_series(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (5000, 20)
    assert peak <= 2 * series.values.nbytes


def test_load_peak_memory_is_within_twice_the_result(tmp_path):
    assert_load_peak_within_twice_the_result(tmp_path)


def test_hash_cell_is_a_located_error(tmp_path):
    # '#' starts no comment: the row is not cut short at it
    p = write(tmp_path, "bad.csv", "a,b\n1,2#junk\n3,4\n")
    with pytest.raises(DataError, match=r"bad\.csv: value '2#junk' at line 2, column 2"):
        load_series(p)


def test_all_hash_data_lines_name_file_and_line(tmp_path):
    p = write(tmp_path, "hashes.csv", "a,b\n#1,2\n")
    with pytest.raises(DataError, match=r"hashes\.csv: value '#1' at line 2, column 1"):
        load_series(p)


def test_bad_byte_in_a_cr_only_file_names_its_line(tmp_path):
    p = tmp_path / "cr.csv"
    p.write_bytes(b"a,b\r1,2\r3,\xe94\r")
    with pytest.raises(DataError, match=r"cr\.csv: line 3: byte 0xe9 is not UTF-8 text"):
        load_series(p)


def test_form_feed_in_a_cell_is_that_cell_s_error(tmp_path):
    # str.splitlines breaks at \x0c, the parse does not
    p = write(tmp_path, "ff.csv", "a,b\n1,2\x0c3\n4,5\n")
    with pytest.raises(DataError, match=r"ff\.csv: value '2\\x0c3' at line 2, column 2"):
        load_series(p)


def test_whitespace_line_is_blank(tmp_path):
    p = write(tmp_path, "ws.csv", "1,2\n \t\n3,4\n \n")
    np.testing.assert_array_equal(load_series(p).values, [[1, 2], [3, 4]])


def test_split_lines_cuts_only_at_lf_crlf_and_cr():
    assert data.split_lines("a\rb\r\nc\nd\x0ce\x1c\u2028f\n") == ["a", "b", "c", "d\x0ce\x1c\u2028f", ""]


def test_label_file_may_have_a_header(tmp_path):
    lp = write(tmp_path, "test_label.csv", "label\n0\n1\n \n")
    labels = load_labels(lp)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, [0, 1])


def test_label_file_with_two_columns_is_rejected(tmp_path):
    lp = write(tmp_path, "test_label.csv", "0,1\n1,0\n")
    with pytest.raises(DataError, match="one 0 or 1 per line"):
        load_labels(lp)


def test_hash_in_label_file_is_rejected(tmp_path):
    lp = write(tmp_path, "test_label.csv", "0\n1 # anomaly\n")
    with pytest.raises(DataError, match=r"test_label\.csv: value '1 # anomaly' at line 2, column 1"):
        load_labels(lp)


# --- load_series in parts ---------------------------------------------------


def parse_in_parts(mp, min_part_bytes, cores=4):
    """Let ``load_series`` cut parts of ``min_part_bytes`` on ``cores`` cores;
    returns the list that the pids of the forked parsers are appended to."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(data, "MIN_PART_BYTES", min_part_bytes)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    mp.setattr(os, "fork", fork)
    return pids


def load_in_process(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "MIN_PART_BYTES", 1 << 62)
        return load_series(path)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def write_matrix(tmp_path):
    p = tmp_path / "train.csv"
    values = np.random.default_rng(300).normal(size=(300, 7)) * 1e3
    np.savetxt(p, values, delimiter=",", fmt="%.17g", header=",".join("m" * 7), comments="")
    return p


def test_large_file_is_parsed_in_parts_bitwise_equal(tmp_path, monkeypatch):
    p = write_matrix(tmp_path)
    expected = load_in_process(p).values
    pids = parse_in_parts(monkeypatch, p.stat().st_size // 5)
    assert_bitwise_equal(load_series(p).values, expected)
    assert len(pids) == 4
    for pid in pids:  # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_small_file_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked for a file under two parts")

    p = write_matrix(tmp_path)
    size = p.stat().st_size
    parse_in_parts(monkeypatch, size // 2 + 1)
    monkeypatch.setattr(os, "fork", no_fork)
    expected = load_in_process(p).values
    assert_bitwise_equal(load_series(p).values, expected)
    parse_in_parts(monkeypatch, 1, cores=1)  # one core: one part, however large
    monkeypatch.setattr(os, "fork", no_fork)
    assert_bitwise_equal(load_series(p).values, expected)


def test_refused_fork_parses_in_process(tmp_path, monkeypatch):
    def refuse():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    p = write_matrix(tmp_path)
    expected = load_in_process(p).values
    parse_in_parts(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", refuse)
    assert_bitwise_equal(load_series(p).values, expected)


@pytest.mark.parametrize("change", ["same-header", "no-header", "removed"])
@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_path_changed_after_its_open_loads_the_opened_file(tmp_path, monkeypatch, change, forked):
    """A file moved over the path, or the path removed, right after the one
    open: the load reads the open file, not whatever the path names now."""
    p, other = write_matrix(tmp_path), tmp_path / "other.csv"
    expected = load_in_process(p).values
    header = ",".join("m" * 7) if change == "same-header" else ""
    np.savetxt(other, np.random.default_rng(301).normal(size=(300, 7)) * 1e5,
               delimiter=",", fmt="%.17g", header=header, comments="")
    real_open = data.open_input

    def open_then_change(path):  # the first open only
        monkeypatch.setattr(data, "open_input", real_open)
        fh = real_open(path)
        if change == "removed":
            p.unlink()
        else:
            os.replace(other, p)
        return fh

    pids = parse_in_parts(monkeypatch, p.stat().st_size // 5 if forked else 1 << 62)
    monkeypatch.setattr(data, "open_input", open_then_change)
    assert_bitwise_equal(load_series(p).values, expected)
    assert len(pids) == (4 if forked else 0)


@pytest.mark.parametrize("text, message", [
    ("m1,m2\n1,2\n3,x\n", "value 'x' at line 3, column 2 is not a finite number"),
    ("m1,m2\n1,2\n3\n", "ragged row at line 3: expected 2 columns, got 1"),
    ("m1,m2\n1,2\n3,nan\n", "value 'nan' at line 3, column 2 is not a finite number"),
    ("m1,m2\n\n\n", "no data rows"),
], ids=["bad-cell", "ragged", "nan", "no-rows"])
@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_fault_is_named_from_the_opened_file_after_the_path_changes(tmp_path, monkeypatch, text, message, forked):
    """A good file moved over the path right after the one open: the fault of
    the opened file is still named, from that file, not the path."""
    p, good = write(tmp_path, "a.csv", text), write(tmp_path, "good.csv", "m1,m2\n1,2\n3,4\n")
    real_open = data.open_input

    def open_then_replace(path):  # the first open only
        monkeypatch.setattr(data, "open_input", real_open)
        fh = real_open(path)
        os.replace(good, p)
        return fh

    pids = parse_in_parts(monkeypatch, 1 if forked else 1 << 62)
    monkeypatch.setattr(data, "open_input", open_then_replace)
    with pytest.raises(DataError) as raised:
        load_series(p)
    assert str(raised.value) == f"{p}: {message}"
    assert len(pids) == (2 if forked else 0)


def test_short_read_of_a_part_parses_in_process(tmp_path, monkeypatch):
    """Each part reads its bytes with ``os.pread``; one that comes back short
    (here cut after a whole line, so its rows would parse) fails the part."""
    p = write_matrix(tmp_path)
    expected = load_in_process(p).values
    real_pread = os.pread

    def short_pread(fd, n, offset):
        part = real_pread(fd, n, offset)
        return part[: part.rindex(b"\n", 0, n // 2) + 1]

    pids = parse_in_parts(monkeypatch, p.stat().st_size // 5)
    monkeypatch.setattr(os, "pread", short_pread)
    assert_bitwise_equal(load_series(p).values, expected)
    assert len(pids) == 4


# a load that forks its two parsers, prints their pids and then stalls
# before it reads a byte from them
_STALLED_LOAD = """
import os, sys, time
from cadts import data
path = sys.argv[1]
data.MIN_PART_BYTES = os.path.getsize(path) // 2 - 64
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = fork
def stall(pipe, buf):
    print("stalled", flush=True)
    time.sleep(600)
data._read_into = stall
data.load_series(path)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_parsers_die_with_a_load_stopped_by_a_signal(tmp_path):
    if cores.budget() == 1:
        pytest.skip("one core: the load never forks")
    p = tmp_path / "big.csv"
    # each part's rows (160 KB) outgrow a pipe's buffer, so a parser that
    # outlived its reader would block on its write for good
    np.savetxt(p, np.random.default_rng(9).random((20000, 2)), delimiter=",", fmt="%.17g")
    env = {**os.environ, "PYTHONPATH": str(Path(data.__file__).parents[1])}
    load = subprocess.Popen([sys.executable, "-c", _STALLED_LOAD, str(p)], stdout=subprocess.PIPE,
                            text=True, env=env)
    pids = []
    try:
        for line in load.stdout:
            if line.strip() == "stalled":
                break
            pids.append(int(line))
        assert len(pids) == 2
        load.send_signal(signal.SIGTERM)
        assert load.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
    finally:
        load.kill()
        load.wait()
        load.stdout.close()
        for pid in filter(running, pids):
            os.kill(pid, signal.SIGKILL)


def test_interrupted_load_reaps_children_and_closes_pipes(tmp_path, monkeypatch):
    p = write_matrix(tmp_path)
    fds = []
    real_pipe = os.pipe

    def pipe():
        fds.extend(real_pipe())
        return fds[-2], fds[-1]

    def interrupted(pipe, buf):
        raise KeyboardInterrupt

    pids = parse_in_parts(monkeypatch, 64, cores=3)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(data, "_read_into", interrupted)
    with pytest.raises(KeyboardInterrupt):
        load_series(p)
    assert len(pids) == 3 and len(fds) == 6
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    for fd in fds:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def test_parts_load_peak_memory_is_within_twice_the_result(tmp_path, monkeypatch):
    pids = parse_in_parts(monkeypatch, 256 << 10)
    assert_load_peak_within_twice_the_result(tmp_path)
    assert len(pids) == 4


@st.composite
def csv_files(draw):
    """A finite matrix as CSV text (optional header, LF, CRLF or CR line
    ends, a header line that may end in a lone CR whatever the data lines
    end in, blank lines inside and at the end), how many header lines it
    has, and its lines."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    cells = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-999, 999)
    lines = [",".join(repr(draw(cells)) for _ in range(cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):  # never before the first row
        lines.insert(draw(st.integers(1, len(lines))), "")
    lines += [""] * draw(st.integers(0, 2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"m{j}" for j in range(cols)))
        text = lines[0] + draw(st.sampled_from([newline, "\r"])) + text
    return text, int(header), lines


def test_parts_load_bitwise_equal_to_one_loadtxt_call(tmp_path_factory):
    path = tmp_path_factory.mktemp("parts") / "series.csv"
    forked = []

    # one file that each core count cuts into that many parts: the drawn
    # files change with the constants Hypothesis gathers from the loaded
    # source, so a draw alone may miss a count
    lines = ["1.5,2.5", "3.5,4.5", "5.5,6.5", "7.5,8.5", "9.5,10.5"]
    cut = ("\n".join(lines) + "\n", 0, lines)

    @settings(max_examples=60, deadline=None)
    @given(csv_files(), st.integers(2, 4))
    @example(cut, 2)
    @example(cut, 3)
    @example(cut, 4)
    def check(file, cores):
        text, header, _ = file
        path.write_bytes(text.encode())
        expected = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2, comments=None,
                              skiprows=header)
        assert_bitwise_equal(load_in_process(path).values, expected)
        with pytest.MonkeyPatch.context() as mp:
            pids = parse_in_parts(mp, 8, cores)
            assert_bitwise_equal(load_series(path).values, expected)
        assert len(pids) <= cores
        forked.append(len(pids))

    check()
    assert {2, 3, 4} <= set(forked)


def test_cr_terminated_header_parses_in_parts(tmp_path, monkeypatch):
    p = write_matrix(tmp_path)
    expected = load_in_process(p).values
    header, data = p.read_bytes().split(b"\n", 1)
    p.write_bytes(header + b"\r" + data)
    assert_bitwise_equal(load_in_process(p).values, expected)
    pids = parse_in_parts(monkeypatch, p.stat().st_size // 5)
    assert_bitwise_equal(load_series(p).values, expected)
    assert len(pids) > 1


@pytest.mark.parametrize("columns, header", [(1, False), (1, True), (7, False), (7, True)])
def test_series_after_a_byte_order_mark_loads_the_same_values(tmp_path, monkeypatch, columns, header):
    """A leading UTF-8 byte-order mark is not text: it is neither a header
    nor part of the first cell, in process and in forked parts alike."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    values = np.random.default_rng(301).normal(size=(300, columns)) * 1e3
    np.savetxt(plain, values, delimiter=",", fmt="%.17g", header=",".join("m" * columns) if header else "",
               comments="")
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    expected = load_in_process(plain).values
    assert len(expected) == 300
    assert_bitwise_equal(load_in_process(marked).values, expected)
    pids = parse_in_parts(monkeypatch, marked.stat().st_size // 5)
    assert_bitwise_equal(load_series(marked).values, expected)
    assert len(pids) > 1


def test_labels_and_scores_after_a_byte_order_mark_load_every_row(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(codecs.BOM_UTF8 + b"1\n0\n1\n")
    assert load_labels(labels).tolist() == [1, 0, 1]
    scores = tmp_path / "scores.txt"
    scores.write_bytes(codecs.BOM_UTF8 + b"0.5\n0.25\n0.75\n")
    assert read_scores(scores).tolist() == [0.5, 0.25, 0.75]
    scores.write_bytes(codecs.BOM_UTF8 + b"0.5\nhello\n")
    with pytest.raises(DataError, match=r"value 'hello' at line 2, column 1"):
        read_scores(scores)


def test_bad_cell_in_last_part_gives_the_in_process_message(tmp_path_factory):
    path = tmp_path_factory.mktemp("parts") / "series.csv"
    forked = []

    @settings(max_examples=40, deadline=None)
    # float() takes 1_0 and ١ (an Arabic-Indic one), the parse does not
    @given(csv_files(), st.sampled_from(["ragged", "nan", "#", "1_0", "\u0661"]), st.data())
    def check(file, bad, draw):
        _, header, lines = file
        rows = [i for i, line in enumerate(lines) if line and i >= header]
        assume(len(rows) > 1)  # a lone row is no ragged row; a lone bad first line, the header
        last = rows[-1]
        cells = lines[last].split(",")
        col = draw.draw(st.integers(0, len(cells) - 1))
        if bad == "ragged":
            cells.append("0")
        else:
            cells[col] = draw.draw(st.sampled_from(["#", "1#2"])) if bad == "#" else bad
        lines = lines[:last] + [",".join(cells)] + lines[last + 1 :]
        path.write_bytes("\n".join(lines).encode())
        with pytest.raises(DataError) as in_process:
            load_in_process(path)
        with pytest.MonkeyPatch.context() as mp:
            pids = parse_in_parts(mp, 8)
            with pytest.raises(DataError) as in_parts:
                load_series(path)
        assert str(in_parts.value) == str(in_process.value)
        assert f"at line {last + 1}" in str(in_process.value)
        forked.append(len(pids))

    check()
    assert max(forked) == 4


# --- scaler -----------------------------------------------------------------


def mat(values, **kw):
    return SeriesMatrix(values=np.asarray(values, dtype=np.float64), **kw)


def test_fit_records_column_extremes():
    scaler = fit_minmax(mat([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]]))
    np.testing.assert_array_equal(scaler.mins, [0.0, 7.0])
    np.testing.assert_array_equal(scaler.maxs, [10.0, 7.0])


def test_columns_fit_independently():
    scaler = fit_minmax(mat([[1.0, -5.0], [3.0, 5.0]]))
    out = apply_minmax(scaler, mat([[2.0, 0.0]]), clip=False)
    np.testing.assert_allclose(out.values, [[0.5, 0.5]])


def test_transform_of_training_column():
    train = mat([[0.0], [5.0], [10.0]])
    out = apply_minmax(fit_minmax(train), train, clip=False)
    np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])


def test_out_of_range_test_value_clipped():
    scaler = fit_minmax(mat([[0.0], [10.0]]))
    out = apply_minmax(scaler, mat([[12.0], [-3.0]]), clip=True)
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 0.0])


def test_constant_column_maps_to_zero():
    train = mat([[7.0], [7.0], [7.0]])
    out = apply_minmax(fit_minmax(train), train, clip=False)
    assert np.all(out.values == 0.0)


def test_column_count_mismatch():
    scaler = fit_minmax(mat([[1.0, 2.0]]))
    with pytest.raises(DataError, match="columns"):
        apply_minmax(scaler, mat([[1.0]]))


def test_training_data_always_lands_in_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        train = mat(rng.normal(scale=rng.choice([0.01, 1.0, 100.0]), size=(t, k)))
        out = apply_minmax(fit_minmax(train), train, clip=False)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0 + 1e-12


def test_unit_range_data_keeps_endpoints():
    # fitting on data already in [0,1] pins each column's min to 0, max to 1
    rng = np.random.default_rng(32)
    train = mat(rng.random(size=(40, 4)))
    out = apply_minmax(fit_minmax(train), train, clip=False)
    np.testing.assert_allclose(out.values.min(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(out.values.max(axis=0), 1.0, atol=1e-15)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


# --- windows ----------------------------------------------------------------


def test_window_counting_h1():
    series = mat(np.arange(20.0).reshape(10, 2))
    ws = make_windows(series, l=3, h=1)
    assert len(ws) == 7
    np.testing.assert_array_equal(ws.windows[0], [[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]])
    np.testing.assert_array_equal(ws.targets[0], [6.0, 7.0])


def test_window_counting_h3():
    series = mat(np.arange(10.0).reshape(10, 1))
    ws = make_windows(series, l=3, h=3)
    assert len(ws) == 5
    assert ws.targets[0][0] == 5.0


def test_window_too_short():
    series = mat(np.zeros((4, 1)))
    with pytest.raises(DataError, match="at least 6"):
        make_windows(series, l=3, h=3)


def test_window_sample_count_formula():
    rng = np.random.default_rng(33)
    for _ in range(500):
        l = int(rng.integers(1, 20))
        h = int(rng.integers(1, 10))
        t = int(l + h + rng.integers(0, 50))
        ws = make_windows(mat(rng.normal(size=(t, 2))), l=l, h=h)
        assert len(ws) == t - l - h + 1
        assert ws.windows.shape == (len(ws), 2, l)
        assert ws.targets.shape == (len(ws), 2)


def test_window_roundtrip_l1_h1():
    rng = np.random.default_rng(34)
    series = mat(rng.normal(size=(25, 3)))
    ws = make_windows(series, l=1, h=1)
    np.testing.assert_array_equal(ws.targets, series.values[1:])


def test_windows_are_views_of_series():
    series = mat(np.arange(12.0).reshape(6, 2))
    ws = make_windows(series, l=2, h=1)
    assert np.shares_memory(ws.windows, series.values)
    assert np.shares_memory(ws.targets, series.values)


def test_non_utf8_byte_in_a_part_gives_the_in_process_message(tmp_path, monkeypatch):
    p = write_matrix(tmp_path)
    lines = p.read_bytes().split(b"\n")
    lines[-3] = lines[-3].replace(b",", b",\xff", 1)
    p.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as in_process:
        load_in_process(p)
    pids = parse_in_parts(monkeypatch, p.stat().st_size // 5)
    with pytest.raises(DataError) as in_parts:
        load_series(p)
    assert len(pids) == 4
    assert str(in_parts.value) == str(in_process.value)
    assert str(in_process.value) == f"{p}: line {len(lines) - 2}: byte 0xff is not UTF-8 text"


# --- atomic_write ---------------------------------------------------------------


@pytest.mark.parametrize("fault", ["write", "replace", "block", "taken"])
def test_failed_atomic_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch, fault):
    p, taken = tmp_path / "scores.txt", tmp_path / "scores.txt.tmp"
    p.write_bytes(b"old\n")
    if fault == "taken":  # a directory holds the temporary path: named, and left as it was
        (taken / "inside").mkdir(parents=True)

    def replace(src, dst):
        raise OSError(errno.EXDEV, "cross-device link")

    def failing_blocks():  # a generator whose second block fails
        yield b"new\n"
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(os, "replace", replace)
    blocks = {"write": ["not bytes"], "replace": [b"new\n"], "block": failing_blocks(), "taken": [b"new\n"]}[fault]
    # an OSError is a DataError naming the path it met; the others pass through
    with pytest.raises({"write": TypeError, "block": RuntimeError}.get(fault, DataError)) as raised:
        data.atomic_write(p, blocks)
    assert fault != "replace" or str(raised.value) == f"{p}: cross-device link"
    assert fault != "taken" or str(raised.value) == f"{taken}: is a directory"
    assert p.read_bytes() == b"old\n"
    assert sorted(tmp_path.iterdir()) == [p] + ([taken] if fault == "taken" else [])
    assert fault != "taken" or list(taken.iterdir()) == [taken / "inside"]


def test_atomic_write_replaces_the_file(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_bytes(b"old\n")
    data.atomic_write(p, [b"new", b"\n"])
    assert p.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [p]


# --- table_text -----------------------------------------------------------------


def test_table_text_writes_each_cell_by_its_one_rule():
    rows = [("entity", "k", "F1"), ("e1", None, 0.1 + 0.2), ("e 2", 10, float("-inf"))]
    assert data.table_text(rows) == "entity\tk\tF1\ne1\t-\t0.30000000000000004\ne 2\t10\t-inf\n"
    assert data.table_text([]) == ""


BREAK, NOT_UTF8 = "holds a tab or a line break", "is not UTF-8 text"


@pytest.mark.parametrize("text, fault", [("a\tb", BREAK), ("a\nb", BREAK), ("a\rb", BREAK), ("\r\n", BREAK),
                                         (os.fsdecode(b"bad\xff"), NOT_UTF8)],
                         ids=["tab", "lf", "cr", "crlf", "not-utf8"])
def test_table_text_refuses_a_cell_that_breaks_its_table(text, fault):
    with pytest.raises(DataError) as err:
        data.table_text([("e1", 0.5), (text, 0.5)])
    assert str(err.value) == f"table cell {text!r} {fault}"
