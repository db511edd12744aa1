import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    NumericError,
    TrendPredictorSpec,
    fit_classifier,
)
from tats.classifiers import LogisticClassifier, OracleTrendPredictor, _directions_into, _fit_logistic
from tats.ingest import FeatureMatrix

from scalar_reference import oracle_draws

seed = 606


def _matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    return FeatureMatrix(
        rows=rows,
        labels=labels,
        n_flat_dropped=0,
    )


def _blobs(n=200, rng_seed=7):
    rng = np.random.default_rng(rng_seed)
    X = np.vstack(
        [rng.normal(-1.0, 0.6, size=(n // 2, 2)), rng.normal(1.0, 0.6, size=(n // 2, 2))]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2))
    perm = rng.permutation(n)
    return _matrix(X[perm], y[perm])


def test_spec_validation():
    with pytest.raises(ConfigError):
        TrendPredictorSpec.knn(k=0)
    with pytest.raises(ConfigError, match="k is not a parameter of the logistic classifier"):
        TrendPredictorSpec("logistic", k=3)
    with pytest.raises(ConfigError):
        TrendPredictorSpec.oracle(accuracy=1.5)
    with pytest.raises(ConfigError):
        TrendPredictorSpec(kind="majority", k=3)  # majority takes no params
    with pytest.raises(ConfigError):
        TrendPredictorSpec(kind="nonsense")
    with pytest.raises(ConfigError):
        TrendPredictorSpec.oracle(accuracy=0.7, seed=-1)


@pytest.mark.parametrize("kind", ["majority", "logistic", "gaussian_nb", "knn"])
def test_feature_classifiers_need_a_non_empty_training_matrix(kind):
    spec = TrendPredictorSpec(kind, k=3 if kind == "knn" else None)
    with pytest.raises(ConfigError, match=f"^{kind} classifier needs a training feature matrix$"):
        fit_classifier(spec)
    with pytest.raises(DataError, match="^training feature matrix is empty$"):
        fit_classifier(spec, _matrix(np.empty((0, 2)), []))


@pytest.mark.parametrize("kind", [np.array(["knn"]), np.array(["knn", "oracle"]), 2, None, b"knn"],
                         ids=["array", "two-element-array", "int", "none", "bytes"])
def test_kind_that_is_not_a_string_is_unknown(kind):
    with pytest.raises(ConfigError, match="unknown classifier kind"):
        TrendPredictorSpec(kind, k=3)


def test_external_spec_takes_only_a_loaded_table(tmp_path):
    path = tmp_path / "dirs.csv"
    path.write_text("time_index,direction\n1,1\n")
    for source in (str(path), path, None):
        with pytest.raises(ConfigError, match=r"load_external_directions\(path, series\)"):
            TrendPredictorSpec.external(source)
    spec = TrendPredictorSpec.external(np.array([np.nan, 1.0]))
    assert fit_classifier(spec)[1] == 1


def test_majority_tie_goes_up():
    fm = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
    clf = fit_classifier(TrendPredictorSpec.majority(), fm)
    assert clf.predict_matrix(np.array([[9.9]]))[0] == 1


def test_majority_follows_count():
    fm = _matrix([[0.0], [1.0], [2.0]], [-1, -1, 1])
    clf = fit_classifier(TrendPredictorSpec.majority(), fm)
    assert clf.direction == -1 and type(clf.direction) is int
    assert clf.predict_matrix(np.array([[0.0]]))[0] == -1


def test_logistic_separable_blobs():
    fm = _blobs()
    clf = fit_classifier(TrendPredictorSpec.logistic(), fm)
    acc = np.mean(clf.predict_matrix(fm.rows) == fm.labels)
    assert acc >= 0.95


def test_logistic_loss_history_non_increasing():
    fm = _blobs(rng_seed=8)
    clf = _fit_logistic(fm, 0.05, 300)
    # the fit keeps the first and last loss; the reference loop records every step
    _, _, losses = _reference_logistic_fit(fm, 0.05, 300)
    hist = np.asarray(losses)
    assert hist.size == 301  # initial loss plus one entry per update
    assert np.all(np.diff(hist) <= 1e-12)
    np.testing.assert_allclose(
        [clf.initial_loss, clf.final_loss], hist[[0, -1]], rtol=1e-14, atol=0.0
    )


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_logistic_fit(fm, learning_rate, iterations):
    """The gradient loop with a masked sigmoid and a logaddexp loss."""
    rows = fm.rows.astype(float)
    targets = (fm.labels == 1).astype(float)
    mean = rows.mean(axis=0)
    scale = rows.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    X = (rows - mean) / scale
    m, d = X.shape
    w = np.zeros(d)
    b = 0.0
    signs = np.where(fm.labels == 1, 1.0, -1.0)
    losses = []
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            z = X @ w + b
            losses.append(float(np.mean(np.logaddexp(0.0, -signs * z))))
            gap = _reference_sigmoid(z) - targets
            w = w - learning_rate * (X.T @ gap) / m
            b = b - learning_rate * float(np.mean(gap))
        z = X @ w + b
        losses.append(float(np.mean(np.logaddexp(0.0, -signs * z))))
    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise NumericError("reference fit diverged")
    return w, b, losses


def _large_score_matrix():
    # well separated on both sides: the fitted scores reach far past +-40,
    # where exp(-|z|) is below 1e-17 and the sigmoid rounds to 0 or 1
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(-4.0, 0.3, size=(150, 3)), rng.normal(4.0, 0.3, size=(150, 3))])
    return _matrix(X, [-1] * 150 + [1] * 150)


@pytest.mark.parametrize(
    "fm, learning_rate, iterations",
    [
        (_blobs(), 0.1, 1000),
        (_blobs(n=500, rng_seed=3), 0.05, 300),
        (_large_score_matrix(), 50.0, 200),
        (_blobs(rng_seed=4), 0.1, 1),
    ],
    ids=["blobs", "blobs-500", "large-scores", "one-iteration"],
)
def test_logistic_fit_matches_reference_loop(fm, learning_rate, iterations):
    w, b, losses = _reference_logistic_fit(fm, learning_rate, iterations)
    clf = _fit_logistic(fm, learning_rate, iterations)
    assert np.array_equal(clf.weights, w)
    assert clf.bias == b
    assert len(losses) == iterations + 1
    np.testing.assert_allclose(
        [clf.initial_loss, clf.final_loss], [losses[0], losses[-1]], rtol=1e-14, atol=0.0
    )


def test_logistic_spec_fits_1000_steps_of_a_tenth():
    fm = _blobs(n=300, rng_seed=9)
    w, b, _ = _reference_logistic_fit(fm, 0.1, 1000)
    clf = fit_classifier(TrendPredictorSpec.logistic(), fm)
    assert np.array_equal(clf.weights, w)
    assert clf.bias == b


def test_logistic_fit_large_scores_case_is_saturated():
    fm = _large_score_matrix()
    clf = _fit_logistic(fm, 50.0, 200)
    scores = clf._scores(fm.rows)
    assert scores.min() < -40.0 and scores.max() > 40.0


def test_logistic_fit_diverges_like_reference_loop():
    fm = _blobs(rng_seed=5)
    with pytest.raises(NumericError):
        _reference_logistic_fit(fm, 1e308, 50)
    with pytest.raises(NumericError, match="logistic fit diverged"):
        _fit_logistic(fm, 1e308, 50)


@pytest.mark.parametrize("spec", [
    TrendPredictorSpec.logistic(), TrendPredictorSpec.gaussian_nb(), TrendPredictorSpec.knn(3),
], ids=["logistic", "gaussian_nb", "knn"])
def test_overflowing_features_are_numeric_errors(spec):
    rng = np.random.default_rng(12)
    fm = _matrix(np.where(rng.random((40, 2)) < 0.5, 1e307, -1e307), [1, -1] * 20)
    with pytest.raises(NumericError, match="overflowed float64"):
        fit_classifier(spec, fm).predict_matrix(fm.rows)


def test_overflowing_prediction_rows_are_numeric_errors():
    huge = np.full((1, 2), 1e200)
    for spec in (TrendPredictorSpec.gaussian_nb(), TrendPredictorSpec.knn(3)):
        with pytest.raises(NumericError, match="overflowed float64"):
            fit_classifier(spec, _blobs()).predict_matrix(huge)
    clf = LogisticClassifier(
        weights=np.ones(2), bias=0.0, feature_mean=np.zeros(2),
        feature_scale=np.full(2, 1e-200), initial_loss=0.0, final_loss=0.0,
    )
    with pytest.raises(NumericError, match="logistic scores"):
        clf.predict_matrix(huge)


def test_logistic_zero_score_predicts_up():
    clf = LogisticClassifier(
        weights=np.zeros(2),
        bias=0.0,
        feature_mean=np.zeros(2),
        feature_scale=np.ones(2),
        initial_loss=0.0,
        final_loss=0.0,
    )
    assert clf.predict_matrix(np.array([[0.0, 0.0]]))[0] == 1


def test_gaussian_nb_separable():
    fm = _blobs(rng_seed=9)
    clf = fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)
    acc = np.mean(clf.predict_matrix(fm.rows) == fm.labels)
    assert acc >= 0.95


def test_gaussian_nb_constant_feature_column():
    # zero variance hits the variance floor instead of dividing by zero
    fm = _matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]], [1, 1, -1, -1])
    clf = fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)
    assert clf.predict_matrix(np.array([[1.5, 5.0]]))[0] == 1


def test_single_class_training_rejected():
    fm = _matrix([[0.0], [1.0]], [1, 1])
    with pytest.raises(DataError):
        fit_classifier(TrendPredictorSpec.logistic(), fm)
    with pytest.raises(DataError):
        fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)


def test_knn_nearest_neighbour():
    fm = _matrix([[0.0], [1.0], [10.0]], [1, -1, 1])
    clf = fit_classifier(TrendPredictorSpec.knn(k=1), fm)
    assert clf.predict_matrix(np.array([[0.4]]))[0] == 1
    assert clf.predict_matrix(np.array([[0.6]]))[0] == -1


def test_knn_tie_goes_up():
    fm = _matrix([[0.0], [1.0]], [1, -1])
    clf = fit_classifier(TrendPredictorSpec.knn(k=2), fm)
    assert clf.predict_matrix(np.array([[0.5]]))[0] == 1


def test_knn_k_exceeds_rows():
    fm = _matrix([[0.0], [1.0]], [1, -1])
    with pytest.raises(ConfigError):
        fit_classifier(TrendPredictorSpec.knn(k=3), fm)


def test_oracle_endpoints():
    rng = np.random.default_rng(seed)
    always = OracleTrendPredictor(accuracy=1.0, seed=seed)
    never = OracleTrendPredictor(accuracy=0.0, seed=seed)
    for _ in range(50):
        truth = np.array([1 if rng.random() < 0.5 else -1])
        assert np.array_equal(always.draw_many(truth), truth)
        assert np.array_equal(never.draw_many(truth), -truth)


def test_oracle_hit_rate():
    orc = OracleTrendPredictor(accuracy=0.75, seed=5)
    truths = np.where(np.random.default_rng(6).standard_normal(10000) > 0, 1, -1)
    draws = orc.draw_many(truths)
    assert abs(float(np.mean(draws == truths)) - 0.75) < 0.015


def test_oracle_flat_truth_fair_coin():
    orc = OracleTrendPredictor(accuracy=1.0, seed=12)
    draws = orc.draw_many(np.zeros(2000, dtype=int))
    share_up = float(np.mean(draws == 1))
    assert abs(share_up - 0.5) < 0.04
    assert set(np.unique(draws)) == {-1, 1}


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_draw_kernel_matches_the_masked_formula_on_ties(dtype):
    u = np.random.default_rng(seed).random(600)
    truths = np.sign(np.random.default_rng(seed + 1).standard_normal(600)).astype(dtype)
    truths[::5] = 0
    # each accuracy equals one draw: a ±1 truth's (a tie counts as wrong), then a flat
    # truth's below 0.5 (UP, since a flat truth ignores the accuracy)
    assert truths[7] != 0 and truths[400] == 0 and u[400] < 0.5
    for accuracy in (float(u[7]), float(u[400])):
        out = np.empty(600, dtype=dtype)
        assert _directions_into(truths, accuracy, u, out) is out
        assert np.array_equal(out, oracle_draws(truths, u, accuracy))
        oracle = OracleTrendPredictor(accuracy, seed)
        assert np.array_equal(oracle.draw_many(truths.astype(int)), oracle_draws(truths.astype(int), u, accuracy))
    # no seed draws exactly 0.5, so fixed draws place it on a flat truth, where it means DOWN
    u = np.array([0.5, np.nextafter(0.5, 0.0), 0.7, 0.7, np.nextafter(0.7, 0.0), 0.7, 0.0])
    truths = np.array([0, 0, 0, 1, -1, -1, 1], dtype=dtype)
    got = _directions_into(truths, 0.7, u, np.empty(7, dtype=dtype))
    assert got.tolist() == [-1, 1, -1, -1, -1, 1, 1]
    assert np.array_equal(got, oracle_draws(truths, u, 0.7))


def test_oracle_is_a_pure_function_of_its_seed():
    truths = np.where(np.random.default_rng(34).random(500) < 0.5, 1, -1)
    truths[::7] = 0
    fitted = fit_classifier(TrendPredictorSpec.oracle(0.7, seed=1))
    first = fitted.draw_many(truths)
    assert np.array_equal(fitted.draw_many(truths), first)
    # each call draws from the start of the seed's stream, as a fresh generator would
    u = np.random.default_rng(1).random(truths.size)
    signed = truths + (truths == 0)
    expected = np.where(u < np.where(truths == 0, 0.5, 0.7), signed, -signed)
    assert np.array_equal(first, expected)
    ss = np.random.SeedSequence(9)
    from_ss = OracleTrendPredictor(accuracy=0.7, seed=ss)
    assert np.array_equal(from_ss.draw_many(truths), from_ss.draw_many(truths))
