"""Loader, scaler and windowing contracts."""

import numpy as np
import pytest

from cadts.data import (
    SeriesMatrix,
    apply_minmax,
    fit_minmax,
    load_labels,
    load_series,
    make_windows,
)
from cadts.errors import DataError


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


def test_load_with_labels(tmp_path):
    p = write(tmp_path, "test.csv", "1\n2\n3\n")
    lp = write(tmp_path, "test_label.csv", "0\n1\n1\n")
    series = load_series(p, labels_path=lp)
    assert series.shape == (3, 1)
    np.testing.assert_array_equal(series.labels, [0, 1, 1])


def test_entity_id_defaults_to_directory(tmp_path):
    d = tmp_path / "machine-1-1"
    d.mkdir()
    p = write(d, "train.csv", "1,2\n")
    assert load_series(p).entity_id == "machine-1-1"


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
    with pytest.raises(DataError, match="empty"):
        load_series(p)


def test_header_only_file(tmp_path):
    p = write(tmp_path, "hdr.csv", "m1,m2\n")
    with pytest.raises(DataError, match="no data"):
        load_series(p)


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
