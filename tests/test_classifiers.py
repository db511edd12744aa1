import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    TrendDirection,
    TrendPredictorSpec,
    cross_val_accuracy,
    fit_classifier,
    predict_direction,
)
from tats.classifiers import (
    DirectionTable,
    LogisticClassifier,
    OracleTrendPredictor,
    classification_accuracy,
)
from tats.core import FLAT
from tats.ingest import FeatureMatrix

seed = 606


def _matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    return FeatureMatrix(
        rows=rows,
        labels=labels,
        row_time_index=np.arange(len(labels)),
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
    for rate in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            TrendPredictorSpec.logistic(learning_rate=rate)
    with pytest.raises(ConfigError):
        TrendPredictorSpec.logistic(iterations=0)
    with pytest.raises(ConfigError):
        TrendPredictorSpec.oracle(accuracy=1.5)
    with pytest.raises(ConfigError):
        TrendPredictorSpec(kind="majority", k=3)  # majority takes no params
    with pytest.raises(ConfigError):
        TrendPredictorSpec(kind="nonsense")
    with pytest.raises(ConfigError):
        TrendPredictorSpec.oracle(accuracy=0.7, seed=-1)


def test_external_spec_takes_only_a_loaded_table(tmp_path):
    path = tmp_path / "dirs.csv"
    path.write_text("time_index,direction\n1,1\n")
    for source in (str(path), path, None):
        with pytest.raises(ConfigError, match=r"load_external_directions\(path, series\)"):
            TrendPredictorSpec.external(source)
    spec = TrendPredictorSpec.external({1: TrendDirection.UP})
    assert fit_classifier(spec).direction_at(1) is TrendDirection.UP


def test_majority_tie_goes_up():
    fm = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
    clf = fit_classifier(TrendPredictorSpec.majority(), fm)
    assert predict_direction(clf, np.array([9.9])) is TrendDirection.UP


def test_majority_follows_count():
    fm = _matrix([[0.0], [1.0], [2.0]], [-1, -1, 1])
    clf = fit_classifier(TrendPredictorSpec.majority(), fm)
    assert predict_direction(clf, np.array([0.0])) is TrendDirection.DOWN


def test_logistic_separable_blobs():
    fm = _blobs()
    clf = fit_classifier(TrendPredictorSpec.logistic(), fm)
    acc = classification_accuracy(clf.predict_matrix(fm.rows), fm.labels)
    assert acc >= 0.95


def test_logistic_loss_history_non_increasing():
    fm = _blobs(rng_seed=8)
    spec = TrendPredictorSpec.logistic(learning_rate=0.05, iterations=300)
    clf = fit_classifier(spec, fm)
    hist = np.asarray(clf.loss_history)
    assert hist.size == 301  # initial loss plus one entry per update
    assert np.all(np.diff(hist) <= 1e-12)


def test_logistic_zero_score_predicts_up():
    clf = LogisticClassifier(
        weights=np.zeros(2),
        bias=0.0,
        feature_mean=np.zeros(2),
        feature_scale=np.ones(2),
        loss_history=(0.0,),
    )
    assert predict_direction(clf, np.array([0.0, 0.0])) is TrendDirection.UP


def test_gaussian_nb_separable():
    fm = _blobs(rng_seed=9)
    clf = fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)
    acc = classification_accuracy(clf.predict_matrix(fm.rows), fm.labels)
    assert acc >= 0.95


def test_gaussian_nb_constant_feature_column():
    # zero variance hits the variance floor instead of dividing by zero
    fm = _matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]], [1, 1, -1, -1])
    clf = fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)
    assert predict_direction(clf, np.array([1.5, 5.0])) is TrendDirection.UP


def test_single_class_training_rejected():
    fm = _matrix([[0.0], [1.0]], [1, 1])
    with pytest.raises(DataError):
        fit_classifier(TrendPredictorSpec.logistic(), fm)
    with pytest.raises(DataError):
        fit_classifier(TrendPredictorSpec.gaussian_nb(), fm)


def test_knn_nearest_neighbour():
    fm = _matrix([[0.0], [1.0], [10.0]], [1, -1, 1])
    clf = fit_classifier(TrendPredictorSpec.knn(k=1), fm)
    assert predict_direction(clf, np.array([0.4])) is TrendDirection.UP
    assert predict_direction(clf, np.array([0.6])) is TrendDirection.DOWN


def test_knn_tie_goes_up():
    fm = _matrix([[0.0], [1.0]], [1, -1])
    clf = fit_classifier(TrendPredictorSpec.knn(k=2), fm)
    assert predict_direction(clf, np.array([0.5])) is TrendDirection.UP


def test_knn_k_exceeds_rows():
    fm = _matrix([[0.0], [1.0]], [1, -1])
    with pytest.raises(ConfigError):
        fit_classifier(TrendPredictorSpec.knn(k=3), fm)


def test_oracle_endpoints():
    rng = np.random.default_rng(seed)
    always = OracleTrendPredictor(accuracy=1.0, rng=rng)
    never = OracleTrendPredictor(accuracy=0.0, rng=rng)
    for _ in range(50):
        truth = TrendDirection.UP if rng.random() < 0.5 else TrendDirection.DOWN
        assert always.draw(truth) is truth
        assert never.draw(truth) is truth.flipped()


def test_oracle_hit_rate():
    orc = OracleTrendPredictor(accuracy=0.75, rng=np.random.default_rng(5))
    truths = np.where(np.random.default_rng(6).standard_normal(10000) > 0, 1, -1)
    draws = orc.draw_many(truths)
    assert abs(float(np.mean(draws == truths)) - 0.75) < 0.015


def test_oracle_flat_truth_fair_coin():
    orc = OracleTrendPredictor(accuracy=1.0, rng=np.random.default_rng(12))
    draws = orc.draw_many(np.zeros(2000, dtype=int))
    share_up = float(np.mean(draws == 1))
    assert abs(share_up - 0.5) < 0.04
    assert set(np.unique(draws)) == {-1, 1}


def test_oracle_scalar_matches_vector_stream():
    truths = np.array([1, -1, 1, 0, -1, 1, 0, 1])
    vec = OracleTrendPredictor(accuracy=0.7, rng=np.random.default_rng(33)).draw_many(truths)
    scal = OracleTrendPredictor(accuracy=0.7, rng=np.random.default_rng(33))
    one_by_one = [
        int(scal.draw(TrendDirection(int(t)) if t != 0 else FLAT)) for t in truths
    ]
    assert np.array_equal(vec, np.array(one_by_one))


def test_predict_direction_rejects_non_feature_models():
    orc = OracleTrendPredictor(accuracy=0.5, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        predict_direction(orc, np.array([1.0]))
    with pytest.raises(ConfigError):
        predict_direction(DirectionTable(by_index={1: TrendDirection.UP}), np.array([1.0]))


def test_feature_dimension_mismatch():
    fm = _blobs()
    clf = fit_classifier(TrendPredictorSpec.logistic(), fm)
    with pytest.raises(ConfigError):
        predict_direction(clf, np.array([1.0, 2.0, 3.0]))


def test_classification_accuracy():
    assert classification_accuracy(np.array([1, -1, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)
    with pytest.raises(ConfigError):
        classification_accuracy(np.array([1]), np.array([1, -1]))


def test_cross_val_accuracy_bounds_and_determinism():
    fm = _blobs(rng_seed=10)
    spec = TrendPredictorSpec.knn(k=5)
    a = cross_val_accuracy(spec, fm, n_folds=5)
    b = cross_val_accuracy(spec, fm, n_folds=5)
    assert a == b
    assert 0.0 <= a <= 1.0
    assert a >= 0.9  # blobs are nearly separable


def test_cross_val_too_many_folds():
    fm = _matrix([[0.0], [1.0], [2.0]], [1, -1, 1])
    with pytest.raises(DataError):
        cross_val_accuracy(TrendPredictorSpec.majority(), fm, n_folds=10)
