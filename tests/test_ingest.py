import numpy as np
import pytest

from tats import DataError, Dataset, TimeSeries, load_csv
from tats.ingest import (
    build_feature_table,
    load_external_directions,
    load_external_forecasts,
)

seed = 404


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_target_only(tmp_path):
    path = _write(tmp_path, "a.csv", "date,price\n2020-01,10.5\n2020-02,11.0\n")
    ds = load_csv(path, target_column="price", label_column="date")
    assert np.array_equal(ds.target.values, np.array([10.5, 11.0]))
    assert ds.target.labels == ("2020-01", "2020-02")
    assert ds.exogenous == {}


def test_load_csv_with_exogenous(tmp_path):
    path = _write(tmp_path, "a.csv", "p,q\n1,4\n2,5\n3,6\n")
    ds = load_csv(path, target_column="p", exogenous_columns=["q"])
    assert np.array_equal(ds.exogenous["q"].values, np.array([4.0, 5.0, 6.0]))


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "a.csv", "p,q\n1,4\n")
    with pytest.raises(DataError) as err:
        load_csv(path, target_column="nope")
    assert "nope" in str(err.value)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a.csv", "p\n1\nxyz\n")
    with pytest.raises(DataError) as err:
        load_csv(path, target_column="p")
    msg = str(err.value)
    assert "'p'" in msg and "row 2" in msg


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv", target_column="p")


def test_load_csv_empty_and_ragged(tmp_path):
    empty = _write(tmp_path, "e.csv", "")
    with pytest.raises(DataError):
        load_csv(empty, target_column="p")
    ragged = _write(tmp_path, "r.csv", "p,q\n1,2\n3\n")
    with pytest.raises(DataError):
        load_csv(ragged, target_column="p", exogenous_columns=["q"])


def test_dataset_length_mismatch():
    t = TimeSeries(np.array([1.0, 2.0, 3.0]))
    x = TimeSeries(np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        Dataset(target=t, exogenous={"x": x})


def test_build_features_worked_example():
    ds = Dataset(target=TimeSeries(np.array([7.0, 5.0, 9.0, 7.0, 8.0])), exogenous={})
    fm = build_feature_table(ds, n_lags=2).training_matrix()
    assert np.array_equal(fm.rows, np.array([[5.0, 7.0], [9.0, 5.0], [7.0, 9.0]]))
    assert np.array_equal(fm.labels, np.array([1, -1, 1]))
    assert np.array_equal(fm.row_time_index, np.array([1, 2, 3]))
    assert fm.n_flat_dropped == 0


def test_build_features_drops_flat_labels():
    ds = Dataset(target=TimeSeries(np.array([1.0, 2.0, 2.0, 3.0])), exogenous={})
    fm = build_feature_table(ds, n_lags=1).training_matrix()
    assert fm.n_flat_dropped == 1
    assert np.array_equal(fm.labels, np.array([1, 1]))
    assert np.array_equal(fm.row_time_index, np.array([0, 2]))


def test_build_features_row_count_invariant():
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(3, 80))
        k = int(rng.integers(1, max(2, n - 1)))
        values = rng.normal(size=n)
        ds = Dataset(target=TimeSeries(values), exogenous={})
        fm = build_feature_table(ds, n_lags=k).training_matrix()
        assert len(fm.labels) + fm.n_flat_dropped == n - k
        # each label is the strict direction of the next move
        for row_t, label in zip(fm.row_time_index, fm.labels):
            delta = values[row_t + 1] - values[row_t]
            assert label == (1 if delta > 0 else -1)
            # lag block is the reversed window ending at row_t
            row = fm.rows[list(fm.row_time_index).index(row_t)]
            assert np.array_equal(row[:k], values[row_t - k + 1 : row_t + 1][::-1])


def test_build_features_too_few_observations():
    ds = Dataset(target=TimeSeries(np.array([1.0, 2.0])), exogenous={})
    with pytest.raises(DataError):
        build_feature_table(ds, n_lags=2).training_matrix()


def test_exogenous_appended_after_lags():
    target = TimeSeries(np.array([1.0, 2.0, 4.0, 8.0]))
    exog = TimeSeries(np.array([10.0, 20.0, 30.0, 40.0]))
    ds = Dataset(target=target, exogenous={"x": exog})
    fm = build_feature_table(ds, n_lags=2).training_matrix()
    # rows at t=1,2: lags then exogenous at the same time step
    assert np.array_equal(fm.rows, np.array([[2.0, 1.0, 20.0], [4.0, 2.0, 30.0]]))


def test_exogenous_lag_shifts_column():
    target = TimeSeries(np.array([1.0, 2.0, 4.0, 8.0]))
    exog = TimeSeries(np.array([10.0, 20.0, 30.0, 40.0]))
    ds = Dataset(target=target, exogenous={"x": exog})
    fm = build_feature_table(ds, n_lags=1, exog_lag=1).training_matrix()
    # rows start at max(n_lags-1, exog_lag) = 1; exogenous taken one step back
    assert np.array_equal(fm.row_time_index, np.array([1, 2]))
    assert np.array_equal(fm.rows, np.array([[2.0, 10.0], [4.0, 20.0]]))


def test_include_exogenous_false():
    target = TimeSeries(np.array([1.0, 2.0, 4.0, 8.0]))
    exog = TimeSeries(np.array([10.0, 20.0, 30.0, 40.0]))
    ds = Dataset(target=target, exogenous={"x": exog})
    fm = build_feature_table(ds, n_lags=1, include_exogenous=False).training_matrix()
    assert fm.rows.shape[1] == 1


def test_feature_table_training_cutoff():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=2)
    full = table.training_matrix()
    cut = table.training_matrix(last_label_time=4)
    assert cut.row_time_index.max() == 4
    assert len(cut.labels) < len(full.labels)


def test_feature_table_row_at():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=3)
    [row] = table.rows_at(np.array([5]))
    assert np.array_equal(row, np.array([5.0, 4.0, 3.0]))
    with pytest.raises(DataError):
        table.rows_at(np.array([0]))  # before the first complete lag window


def test_feature_table_batch_gather():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=3)
    rows = table.rows_at(np.array([7, 2, 5]))
    assert np.array_equal(rows, np.array([[7.0, 6.0, 5.0], [2.0, 1.0, 0.0], [5.0, 4.0, 3.0]]))
    # the gather starts before the first row (time 2); the first missing index is named
    with pytest.raises(DataError, match=r"no feature row at time index 1 \(available 2\.\.8\)"):
        table.rows_at(np.arange(1, 6))
    with pytest.raises(DataError, match="no feature row at time index 9"):
        table.rows_at(np.array([8, 9]))


def test_external_forecasts_round_trip(tmp_path):
    path = _write(tmp_path, "f.csv", "time_index,forecast\n1,10.5\n2,11.0\n")
    series = TimeSeries(np.arange(5, dtype=float))
    ext = load_external_forecasts(path, series)
    assert ext.value_at(1) == 10.5
    assert ext.value_at(2) == 11.0
    assert sorted(ext.by_index) == [1, 2]
    with pytest.raises(DataError):
        ext.value_at(3)


def test_external_forecasts_validation(tmp_path):
    series = TimeSeries(np.arange(5, dtype=float))
    dup = _write(tmp_path, "d.csv", "time_index,forecast\n1,10.0\n1,11.0\n")
    with pytest.raises(DataError):
        load_external_forecasts(dup, series)
    out = _write(tmp_path, "o.csv", "time_index,forecast\n0,10.0\n")
    with pytest.raises(DataError):
        load_external_forecasts(out, series)
    far = _write(tmp_path, "g.csv", "time_index,forecast\n9,10.0\n")
    with pytest.raises(DataError):
        load_external_forecasts(far, series)
    for cell in ("nan", "inf", "-inf"):
        bad = _write(tmp_path, "n.csv", f"time_index,forecast\n1,10.0\n3,{cell}\n")
        with pytest.raises(DataError, match=rf"n\.csv: forecast at time_index 3 is not finite, got {cell}"):
            load_external_forecasts(bad, series)


def test_external_directions(tmp_path):
    series = TimeSeries(np.arange(60.0))
    path = _write(tmp_path, "dirs.csv", "time_index,direction\n1,1\n2,-1\n")
    table = load_external_directions(path, series)
    assert int(table[1]) == 1
    assert int(table[2]) == -1
    with pytest.raises(TypeError):
        load_external_directions(path)  # the series is required
    bad = _write(tmp_path, "bad.csv", "time_index,direction\n1,0\n")
    with pytest.raises(DataError):
        load_external_directions(bad, series)
    for index in (0, 60, 999):
        far = _write(tmp_path, "far.csv", f"time_index,direction\n1,1\n{index},-1\n")
        with pytest.raises(DataError, match=f"time_index {index} outside the forecastable range 1..59"):
            load_external_directions(far, series)
