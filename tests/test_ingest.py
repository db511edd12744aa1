import numpy as np
import pytest

from tats import ConfigError, DataError, Dataset, TimeSeries, load_csv
from tats.ingest import (
    _table_slice,
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


def _labeled_csv(tmp_path, labels, values=None):
    values = values or [str(float(i)) for i in range(len(labels))]
    rows = "".join(f"{label},{value}\n" for label, value in zip(labels, values))
    return _write(tmp_path, "labeled.csv", "day,price\n" + rows)


@pytest.mark.parametrize(
    "labels, position",
    [
        pytest.param(["3", "2", "1", "0"], 1, id="decreasing"),
        pytest.param(["0", "1", "1", "2"], 2, id="duplicate"),
        pytest.param(["0", "1", "nan", "2"], 2, id="nan"),
        # one text cell makes every label compare as text, and "9" > "10"
        pytest.param([str(i) for i in range(11)] + ["x"], 10, id="mixed-types"),
    ],
)
def test_load_csv_rejects_labels_that_do_not_increase(tmp_path, labels, position):
    path = _labeled_csv(tmp_path, labels)
    with pytest.raises(DataError, match=f"^labels must be strictly increasing, violated at position {position}$"):
        load_csv(path, target_column="price", label_column="day")


def test_load_csv_labels_compare_as_numbers_when_all_parse(tmp_path):
    # as text "9" > "10"; as numbers the column increases
    path = _labeled_csv(tmp_path, [str(i) for i in range(12)])
    ds = load_csv(path, target_column="price", label_column="day")
    assert len(ds.target) == 12


@pytest.mark.parametrize(
    "cell, message",
    [
        ("nan", "series value at position 3 is not finite"),
        ("abc", "non-numeric value 'abc' in column 'price', data row 4"),
    ],
)
def test_load_csv_target_errors_come_before_label_errors(tmp_path, cell, message):
    path = _labeled_csv(tmp_path, ["4", "3", "2", "1"], ["1.0", "2.0", "3.0", cell])
    with pytest.raises(DataError, match=message):
        load_csv(path, target_column="price", label_column="day")


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a.csv", "p\n1\nxyz\n")
    with pytest.raises(DataError) as err:
        load_csv(path, target_column="p")
    msg = str(err.value)
    assert "'p'" in msg and "row 2" in msg


@pytest.mark.parametrize("columns", [
    {"target_column": "y"},
    {"target_column": "x", "exogenous_columns": ["y"]},
    {"target_column": "x", "label_column": "y"},
], ids=["target", "exogenous", "label"])
def test_load_csv_rejects_a_requested_column_named_twice(tmp_path, columns):
    path = _write(tmp_path, "a.csv", "y,x,y\n1,2,3\n4,5,6\n")
    with pytest.raises(DataError, match="column 'y' appears 2 times in the header"):
        load_csv(path, **columns)


def test_load_csv_ignores_a_repeated_column_it_does_not_read(tmp_path):
    path = _write(tmp_path, "a.csv", "y,x,x\n1,2,3\n4,5,6\n")
    ds = load_csv(path, target_column="y")
    assert np.array_equal(ds.target.values, np.array([1.0, 4.0]))


def test_load_csv_rejects_an_exogenous_column_listed_twice_before_reading(tmp_path):
    # the file does not exist, so the error cannot come from reading it
    with pytest.raises(ConfigError, match="exogenous column 'x' is listed twice"):
        load_csv(tmp_path / "missing.csv", target_column="y", exogenous_columns=["x", "z", "x"])


def test_load_csv_rejects_the_target_as_an_exogenous_column_before_reading(tmp_path):
    # each classifier row would hold the target's value twice
    with pytest.raises(ConfigError, match="^exogenous column 'y' is the target column$"):
        load_csv(tmp_path / "missing.csv", target_column="y", exogenous_columns=["x", "y"])


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
    # the newest lag of each row is the value at its time s, and its label the sign of y_{s+1} - y_s
    assert np.array_equal(fm.rows[:, 0], ds.target.values[[1, 2, 3]])
    assert np.array_equal(fm.labels, np.sign(np.diff(ds.target.values))[[1, 2, 3]])
    assert fm.n_flat_dropped == 0


def test_build_features_drops_flat_labels():
    # the exogenous values tell the rows at s = 1 and s = 2 apart, whose targets are both 2
    x = TimeSeries(np.array([10.0, 20.0, 30.0, 40.0]))
    ds = Dataset(target=TimeSeries(np.array([1.0, 2.0, 2.0, 3.0])), exogenous={"x": x})
    fm = build_feature_table(ds, n_lags=1).training_matrix()
    assert fm.n_flat_dropped == 1
    assert np.array_equal(fm.labels, np.array([1, 1]))
    assert np.array_equal(fm.rows, np.array([[1.0, 10.0], [2.0, 30.0]]))  # the rows at s = 0 and s = 2


def test_build_features_row_count_invariant():
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(3, 80))
        k = int(rng.integers(1, max(2, n - 1)))
        values = rng.normal(size=n)
        ds = Dataset(target=TimeSeries(values), exogenous={})
        fm = build_feature_table(ds, n_lags=k).training_matrix()
        assert len(fm.labels) + fm.n_flat_dropped == n - k
        # the rows kept are those at each time s from k - 1 to n - 2 whose next move is strict
        times = [s for s in range(k - 1, n - 1) if values[s + 1] != values[s]]
        assert len(fm.labels) == len(times)
        for s, row, label in zip(times, fm.rows, fm.labels):
            # each label is the strict direction of the next move
            assert label == (1 if values[s + 1] - values[s] > 0 else -1)
            # lag block is the reversed window ending at s
            assert np.array_equal(row[:k], values[s - k + 1 : s + 1][::-1])


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
    table = build_feature_table(ds, n_lags=1, exog_lag=1)
    fm = table.training_matrix()
    # rows start at max(n_lags-1, exog_lag) = 1; exogenous taken one step back
    assert table.first == 1
    assert np.array_equal(fm.rows, np.array([[2.0, 10.0], [4.0, 20.0]]))


def test_include_exogenous_false():
    # a caller that wants no exogenous features passes none, and exog_lag then moves no row
    target = TimeSeries(np.array([1.0, 2.0, 4.0, 8.0]))
    fm = build_feature_table(Dataset(target=target, exogenous={}), n_lags=1, exog_lag=2).training_matrix()
    assert fm.rows.shape[1] == 1
    assert np.array_equal(fm.rows[:, 0], target.values[[0, 1, 2]])  # the rows at s = 0, 1, 2


def test_feature_table_training_cutoff():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=2)
    full = table.training_matrix()
    cut = table.training_matrix(n_train=6)
    # the label at s reads y_{s+1}, so a train split of 6 values labels rows up to s = 4
    assert np.array_equal(cut.rows[-1], np.array([4.0, 3.0]))
    assert len(cut.labels) < len(full.labels)


def test_feature_table_row_at():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=3)
    [row] = table.rows_for_steps(6, 7)  # the row at s = 5 predicts step 6
    assert np.array_equal(row, np.array([5.0, 4.0, 3.0]))
    with pytest.raises(DataError):
        table.rows_for_steps(1, 2)  # the row at s = 0 is before the first complete lag window


def test_feature_table_batch_gather():
    values = np.arange(10, dtype=float)
    ds = Dataset(target=TimeSeries(values), exogenous={})
    table = build_feature_table(ds, n_lags=3)
    rows = table.rows_for_steps(3, 10)
    assert np.array_equal(rows, np.array([[s, s - 1.0, s - 2.0] for s in range(2, 9)]))
    # the steps start before the first row (time 2, which predicts step 3); the message names the steps available
    with pytest.raises(DataError, match=r"^no feature rows for steps 2\.\.5 \(available 3\.\.9\)$"):
        table.rows_for_steps(2, 6)
    with pytest.raises(DataError, match=r"^no feature rows for steps 9\.\.10 \(available 3\.\.9\)$"):
        table.rows_for_steps(9, 11)


def test_rows_for_steps_bounds():
    values = np.random.default_rng(seed + 1).normal(size=12)
    table = build_feature_table(Dataset(TimeSeries(values)), n_lags=4)  # rows at s = 3..10 predict steps 4..11
    assert table.first == 3
    assert np.array_equal(table.rows_for_steps(4, 5), values[3::-1][None, :])  # the first valid step
    assert table.rows_for_steps(4, 12).shape == (8, 4)  # through the last step
    available = r" \(available 4\.\.11\)$"
    with pytest.raises(DataError, match=r"^no feature rows for steps 3\.\.4" + available):
        table.rows_for_steps(3, 5)  # one step before the first
    with pytest.raises(DataError, match=r"^no feature rows for steps 11\.\.12" + available):
        table.rows_for_steps(11, 13)  # one step past the end


@pytest.mark.parametrize("value", [5.5, 3.0, True, "x", None, np.float64(4.0)])
def test_feature_table_steps_and_train_length_must_be_integers(value):
    # a float or a string used to leak numpy's TypeError, and True was taken as 1
    table = build_feature_table(Dataset(TimeSeries(np.arange(10.0) ** 2)), n_lags=2)
    calls = {"n_train": lambda: table.training_matrix(value), "start": lambda: table.rows_for_steps(value, 5),
             "stop": lambda: table.rows_for_steps(3, value)}
    for name, call in calls.items():
        if value is None and name == "n_train":
            continue  # None means the whole table
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            call()
    # numpy integers stay valid, and negative values are refused as values, not types
    assert np.array_equal(table.rows_for_steps(np.int64(3), np.int32(5)), table.rows_for_steps(3, 5))
    assert np.array_equal(table.training_matrix(np.uint8(6)).rows, table.training_matrix(6).rows)
    with pytest.raises(ConfigError, match="^n_train must be non-negative, got -1$"):
        table.training_matrix(-1)


def test_training_matrix_keeps_the_labels_inside_the_train_split():
    rng = np.random.default_rng(seed + 2)
    for _ in range(30):
        n = int(rng.integers(6, 30))
        values = rng.integers(0, 3, size=n).astype(float)  # few levels, so many moves are flat
        dataset = Dataset(TimeSeries(values), {"x": TimeSeries(rng.normal(size=n))})
        table = build_feature_table(dataset, int(rng.integers(1, 3)), int(rng.integers(0, 3)))
        everything, whole_series = table.training_matrix(None), table.training_matrix(n)
        assert np.array_equal(everything.rows, whole_series.rows)
        assert np.array_equal(everything.labels, whole_series.labels)
        for n_train in range(1, n + 1):
            # brute force: each s with first <= s <= n_train - 2 and a non-zero next move, in order
            steps = range(table.first, n_train - 1)
            labeled = [s for s in steps if values[s + 1] != values[s]]
            if not labeled:
                with pytest.raises(DataError, match="^no labeled feature rows available for training$"):
                    table.training_matrix(n_train)
                continue
            fm = table.training_matrix(n_train)
            assert fm.labels.tolist() == [1 if values[s + 1] > values[s] else -1 for s in labeled]
            assert np.array_equal(fm.rows, table.rows[[s - table.first for s in labeled]])
            assert fm.n_flat_dropped == len(steps) - len(labeled)


def test_too_short_message_names_the_setting_that_binds():
    target, x = TimeSeries(np.arange(20.0)), TimeSeries(np.ones(20))
    too_short = r"^series of length 20 too short for {} \(no labeled rows possible\)$"
    with pytest.raises(DataError, match=too_short.format("exog_lag=50")):
        build_feature_table(Dataset(target, {"x": x}), 2, exog_lag=50)
    with pytest.raises(DataError, match=too_short.format("30 lags")):
        build_feature_table(Dataset(target, {"x": x}), 30, exog_lag=5)
    with pytest.raises(DataError, match=too_short.format("30 lags")):
        build_feature_table(Dataset(target), 30, exog_lag=50)  # no exogenous series, so exog_lag moves no row


def test_external_forecasts_round_trip(tmp_path):
    path = _write(tmp_path, "f.csv", "time_index,forecast\n1,10.5\n2,11.0\n")
    series = TimeSeries(np.arange(5, dtype=float))
    ext = load_external_forecasts(path, series)
    assert ext[1] == 10.5
    assert ext[2] == 11.0
    assert np.array_equal(np.flatnonzero(~np.isnan(ext)), [1, 2])
    with pytest.raises(DataError, match="external forecasts missing time index 3"):
        _table_slice(ext, 1, 4, "forecasts")


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


# Parity of the CSV reader: padding, blank rows and the row a message names.


def test_load_csv_skips_blank_rows(tmp_path):
    # a row of empty cells, rows of whitespace (full width and one cell) and an empty line
    path = _write(tmp_path, "a.csv", "p,q\n1,4\n,\n  ,\t\n   \n\n2,5\n")
    ds = load_csv(path, target_column="p", exogenous_columns=["q"])
    assert np.array_equal(ds.target.values, np.array([1.0, 2.0]))
    assert np.array_equal(ds.exogenous["q"].values, np.array([4.0, 5.0]))


def test_load_csv_reads_padded_numbers(tmp_path):
    path = _write(tmp_path, "a.csv", " p , q \n 1.5 ,4\n2\t, \t-0.25 \n  3e2,  6  \n")
    ds = load_csv(path, target_column="p", exogenous_columns=["q"])
    assert np.array_equal(ds.target.values, np.array([1.5, 2.0, 300.0]))
    assert np.array_equal(ds.exogenous["q"].values, np.array([4.0, -0.25, 6.0]))


def test_load_csv_strips_text_labels_before_comparing(tmp_path):
    # unstripped, "x1 " > " x2" and " b" < "a": only the stripped labels give these results
    rising = _write(tmp_path, "rising.csv", "day,p\nx1 ,1\n x2,2\nx3,3\n")
    assert len(load_csv(rising, target_column="p", label_column="day").target) == 3
    falling = _write(tmp_path, "falling.csv", "day,p\n  b,1\na,2\n")
    with pytest.raises(DataError, match="^labels must be strictly increasing, violated at position 1$"):
        load_csv(falling, target_column="p", label_column="day")


def test_load_csv_strips_separator_characters_that_float_rejects(tmp_path):
    # str.strip() removes \x1c-\x1f and float() does not: the stripped labels are
    # numbers, so they fall at 10 > 9, where as text "10" < "9" would pass
    labels = _write(tmp_path, "a.csv", "day,p\n\x1c10,1\n9\x1d,2\n")
    with pytest.raises(DataError, match="^labels must be strictly increasing, violated at position 1$"):
        load_csv(labels, target_column="p", label_column="day")
    cells = _write(tmp_path, "b.csv", "p\n\x1f1.5\n2\x1e\n")
    assert np.array_equal(load_csv(cells, target_column="p").target.values, np.array([1.5, 2.0]))


@pytest.mark.parametrize("blank", ["\n", ",\n", "  , \n"], ids=["empty-line", "commas", "spaces"])
def test_load_csv_bad_cell_after_blank_row_counts_data_rows(tmp_path, blank):
    path = _write(tmp_path, "a.csv", f"p,q\n1,2\n{blank}  xyz ,3\n")
    with pytest.raises(DataError, match=r"a\.csv: non-numeric value 'xyz' in column 'p', data row 2$"):
        load_csv(path, target_column="p", exogenous_columns=["q"])


def test_load_csv_ragged_row_names_its_line(tmp_path):
    path = _write(tmp_path, "a.csv", "p,q\n1,2\n\n , \n3\n")
    with pytest.raises(DataError, match=r"a\.csv: row 5 has 1 cells, header has 2$"):
        load_csv(path, target_column="p", exogenous_columns=["q"])


def test_load_csv_only_blank_rows_has_no_data_rows(tmp_path):
    path = _write(tmp_path, "a.csv", "p,q\n,\n \n")
    with pytest.raises(DataError, match=r"a\.csv: no data rows$"):
        load_csv(path, target_column="missing")


def test_external_table_reads_padded_cells(tmp_path):
    series = TimeSeries(np.arange(5, dtype=float))
    path = _write(tmp_path, "f.csv", " time_index , forecast \n 1 , 10.5 \n\n,\n2\t,11\n")
    ext = load_external_forecasts(path, series)
    assert np.array_equal(ext[1:3], np.array([10.5, 11.0]))
    assert np.array_equal(np.flatnonzero(~np.isnan(ext)), [1, 2])
    bad = _write(tmp_path, "b.csv", "time_index,forecast\n1,10\n,\n 2 , x y \n")
    with pytest.raises(DataError, match=r"b\.csv: non-numeric value 'x y' in column 'forecast', data row 2$"):
        load_external_forecasts(bad, series)
    bad_index = _write(tmp_path, "i.csv", "time_index,forecast\n \n 1.5 ,10\n")
    with pytest.raises(DataError, match=r"i\.csv: non-integer time_index '1\.5' at data row 1$"):
        load_external_forecasts(bad_index, series)
