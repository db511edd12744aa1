"""Trend direction predictors: fitted classifiers, a dial-in oracle, and
externally supplied direction tables.

All decision rules break ties toward UP so results are reproducible:
logistic scores use >= 0.5, nearest-neighbor and majority votes use
count(UP) >= count(DOWN). A seeded oracle is a pure function of its
seed: each call takes one uniform draw per prediction from the start of
the seed's stream, so equal truths give equal directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, _int_at_least, _real, _require_finite
from .ingest import FeatureMatrix

__all__ = [
    "GaussianNBClassifier",
    "KNNClassifier",
    "LogisticClassifier",
    "MajorityClassifier",
    "OracleTrendPredictor",
    "TrendPredictorSpec",
    "fit_classifier",
]

NB_VARIANCE_FLOOR = 1e-9
CLASSIFIER_KINDS = ("majority", "logistic", "gaussian_nb", "knn", "oracle", "external")
# the logistic fit's gradient step and step count
LOGISTIC_LEARNING_RATE = 0.1
LOGISTIC_ITERATIONS = 1000


@dataclass(frozen=True, eq=False)
class TrendPredictorSpec:
    """Declarative classifier choice; parameters must match the kind.

    kind: one of CLASSIFIER_KINDS.
    k: neighbor count (knn only).
    accuracy: hit probability in [0, 1] (oracle only).
    seed: non-negative seed of the draws (oracle only).
    source: +1/-1 directions indexed by series position, NaN where absent
        (external only); read a time_index,direction CSV with
        load_external_directions, which checks its indices against the series.

    Specs compare and hash by identity, as an array source has no single
    truth value.
    """

    kind: str
    k: int | None = None
    accuracy: float | None = None
    seed: int | None = None
    source: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier kind: {self.kind!r}")
        own = {"knn": ("k",), "oracle": ("accuracy", "seed"), "external": ("source",)}.get(self.kind, ())
        for name in ("k", "accuracy", "seed", "source"):
            if getattr(self, name) is not None and name not in own:
                raise ConfigError(f"{name} is not a parameter of the {self.kind} classifier")
        if self.kind == "knn":
            object.__setattr__(self, "k", _int_at_least("KNN k", self.k, 1))
        elif self.kind == "oracle":
            object.__setattr__(self, "accuracy", _real("oracle accuracy", self.accuracy, 0.0, 1.0))
            object.__setattr__(self, "seed", _int_at_least("oracle seed", self.seed, 0))
        elif self.kind == "external":
            if not (isinstance(self.source, np.ndarray) and self.source.ndim == 1):
                raise ConfigError(
                    "external classifier needs a position-indexed direction array, got "
                    f"{self.source!r}; read a file with load_external_directions(path, series)"
                )

    @property
    def reads_features(self) -> bool:
        """Whether this kind is fit on, and predicts from, a feature table."""
        return self.kind not in ("oracle", "external")

    @property
    def label(self) -> str:
        """The model's name in reports: knn(k=5), oracle(p=0.7), or the kind."""
        if self.kind == "knn":
            return f"knn(k={self.k})"
        if self.kind == "oracle":
            return f"oracle(p={self.accuracy:g})"
        return self.kind

    @classmethod
    def majority(cls) -> "TrendPredictorSpec":
        return cls("majority")

    @classmethod
    def logistic(cls) -> "TrendPredictorSpec":
        return cls("logistic")

    @classmethod
    def gaussian_nb(cls) -> "TrendPredictorSpec":
        return cls("gaussian_nb")

    @classmethod
    def knn(cls, k: int = 5) -> "TrendPredictorSpec":
        return cls("knn", k=k)

    @classmethod
    def oracle(cls, accuracy: float, seed: int = 0) -> "TrendPredictorSpec":
        return cls("oracle", accuracy=accuracy, seed=seed)

    @classmethod
    def external(cls, source: np.ndarray) -> "TrendPredictorSpec":
        return cls("external", source=source)


@dataclass(frozen=True)
class MajorityClassifier:
    """Always predicts the most frequent training direction (tie: UP)."""

    direction: int

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        return np.full(rows.shape[0], self.direction, dtype=int)


@dataclass(frozen=True)
class LogisticClassifier:
    """Logistic regression trained by 1,000 full-batch gradient steps of 0.1.

    Features are standardized with training statistics; weights start at
    zero, so with no informative gradient the model predicts UP (score
    exactly 0.5). initial_loss is the mean log-loss before the first
    update and final_loss the one after the last: the mean softplus of
    the signed margin, max(m, 0) + log1p(exp(-|z|)), computed from the
    same exp(-|z|) that gives the sigmoid. No loss is computed in between.
    """

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    initial_loss: float
    final_loss: float

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            standardized = (rows - self.feature_mean) / self.feature_scale
            scores = standardized @ self.weights + self.bias
        return _require_finite(scores, "the logistic scores")

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        return np.where(self._scores(rows) >= 0.0, 1, -1)


@dataclass(frozen=True)
class GaussianNBClassifier:
    """Gaussian naive Bayes over feature columns (variance floor 1e-9).

    Row 0 of log_priors, means and variances is the UP class, row 1 DOWN.
    """

    log_priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        # log N(x; mu, var) summed over features, one column per class
        scores = np.empty((rows.shape[0], 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(2):
                gap = rows - self.means[j]
                scores[:, j] = self.log_priors[j] - 0.5 * np.sum(
                    np.log(2.0 * np.pi * self.variances[j]) + gap**2 / self.variances[j], axis=1
                )
        _require_finite(scores, "the naive Bayes log-likelihoods")
        return np.where(scores[:, 0] >= scores[:, 1], 1, -1)


@dataclass(frozen=True)
class KNNClassifier:
    """k-nearest-neighbor direction vote (Euclidean distance, tie: UP)."""

    rows: np.ndarray
    labels: np.ndarray
    k: int

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.shape[0], dtype=int)
        for i in range(rows.shape[0]):
            with np.errstate(over="ignore", invalid="ignore"):
                distances = np.sqrt(np.sum((self.rows - rows[i]) ** 2, axis=1))
            _require_finite(distances, "the nearest-neighbor distances")
            nearest = np.argsort(distances, kind="stable")[: self.k]
            votes_up = int(np.count_nonzero(self.labels[nearest] == 1))
            out[i] = 1 if votes_up >= self.k - votes_up else -1
        return out


@dataclass(frozen=True)
class OracleTrendPredictor:
    """Emits the true direction with a dialed-in probability.

    Truths and predictions are +1/-1 ints, and a truth of 0 is a flat
    move. Each call draws one uniform per prediction from the start of the
    stream of ``seed``, an int or any numpy ``ISeedSequence``, so one oracle
    always gives the same directions for the same truths. For a flat truth
    there is no correct answer; the same draw then picks UP or DOWN evenly.
    """

    accuracy: float
    seed: int | np.random.bit_generator.ISeedSequence

    def draw_many(self, truths: np.ndarray) -> np.ndarray:
        """Draws for +1/-1/0 truth signs (0 meaning flat)."""
        u = np.random.default_rng(self.seed).random(truths.size)
        return _directions_into(truths, self.accuracy, u, np.empty(truths.size, dtype=np.result_type(truths, bool)))


def _directions_into(truths: np.ndarray, accuracy: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:meth:`OracleTrendPredictor.draw_many` of the uniform draws u, elementwise into out of any shape."""
    flat = truths == 0
    # a flat truth becomes UP below 0.5 and DOWN otherwise; flats are rare, so this mask
    # is almost all False and the masked write costs little
    wrong = u >= accuracy
    np.greater_equal(u, 0.5, out=wrong, where=flat)
    # out = (truths + flat) * (1 - 2*wrong), the factor built in the bytes of wrong
    factor = wrong.view(np.int8)
    factor *= -2
    factor += 1
    np.add(truths, flat, out=out)
    return np.multiply(out, factor, out=out)


def _fit_logistic(
    features: FeatureMatrix,
    learning_rate: float = LOGISTIC_LEARNING_RATE,
    iterations: int = LOGISTIC_ITERATIONS,
) -> LogisticClassifier:
    rows = features.rows.astype(float)
    targets = (features.labels == 1).astype(float)
    # an overflowing mean also makes the standard deviation non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        scale = _require_finite(rows.std(axis=0), "the feature standard deviations")
    scale = np.where(scale < 1e-12, 1.0, scale)
    X = (rows - mean) / scale
    m, d = X.shape
    w = np.zeros(d)
    b = 0.0
    # +1 where a positive score is a miss (DOWN rows), -1 for UP rows
    margin_sign = np.where(features.labels == 1, -1.0, 1.0)
    # the per-step arrays are buffers filled in place; the loss is taken
    # before the first update and after the last
    z, ez, den, gap = (np.empty(m) for _ in range(4))
    losses = []
    # a diverging step size overflows; that is reported below, not warned about
    with np.errstate(all="ignore"):
        for step in range(iterations + 1):
            np.matmul(X, w, out=z)
            z += b
            # one exp(-|z|) serves the stable sigmoid and the stable softplus
            np.exp(np.negative(np.abs(z, out=ez), out=ez), out=ez)
            if step in (0, iterations):
                losses.append(float(np.mean(np.maximum(margin_sign * z, 0.0) + np.log1p(ez))))
            if step == iterations:
                break
            # the sigmoid: 1 / (1 + ez) where z >= 0, else ez / (1 + ez)
            np.add(ez, 1.0, out=den)
            # max(z >= 0, ez) is 1 where z >= 0 and ez elsewhere, as 0 <= ez <= 1; a NaN ez stays NaN
            np.maximum(np.greater_equal(z, 0.0, out=gap), ez, out=gap)
            gap /= den
            gap -= targets
            w = w - learning_rate * (X.T @ gap) / m
            # the sum over m is the bits np.mean gives
            b = b - learning_rate * float(gap.sum() / m)
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise NumericError(f"logistic fit diverged to non-finite weights (learning rate {learning_rate})")
    w.flags.writeable = False
    return LogisticClassifier(
        weights=w, bias=b, feature_mean=mean, feature_scale=scale,
        initial_loss=losses[0], final_loss=losses[-1],
    )


def _fit_gaussian_nb(features: FeatureMatrix) -> GaussianNBClassifier:
    means = np.empty((2, features.rows.shape[1]))
    variances = np.empty_like(means)
    log_priors = np.empty(2)
    for j, c in enumerate((1, -1)):
        mask = features.labels == c
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise DataError("gaussian naive Bayes needs both directions in the training set")
        sub = features.rows[mask]
        # an overflowing mean also makes the variance non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            means[j] = sub.mean(axis=0)
            variances[j] = np.maximum(sub.var(axis=0), NB_VARIANCE_FLOOR)
        log_priors[j] = np.log(count / features.labels.size)
    _require_finite(variances, "the naive Bayes feature variances")
    return GaussianNBClassifier(log_priors=log_priors, means=means, variances=variances)


def fit_classifier(spec: TrendPredictorSpec, features: FeatureMatrix | None = None):
    """Build the predictor described by ``spec``.

    Feature-based kinds require a training FeatureMatrix; the oracle and
    external tables do not. An external table is its own predictor: the
    position-indexed direction array is returned as it is.
    """
    if spec.kind == "oracle":
        return OracleTrendPredictor(accuracy=spec.accuracy, seed=spec.seed)
    if spec.kind == "external":
        return spec.source
    if features is None:
        raise ConfigError(f"{spec.kind} classifier needs a training feature matrix")
    if len(features) == 0:
        raise DataError("training feature matrix is empty")
    if spec.kind == "majority":
        ups = int(np.count_nonzero(features.labels == 1))
        direction = 1 if ups >= len(features) - ups else -1
        return MajorityClassifier(direction=direction)
    if spec.kind == "logistic":
        if features.labels.min() == features.labels.max():
            raise DataError("logistic regression needs both directions in the training set")
        return _fit_logistic(features)
    if spec.kind == "gaussian_nb":
        return _fit_gaussian_nb(features)
    # knn, the last kind that the spec admits
    if spec.k > len(features):
        raise ConfigError(f"KNN k={spec.k} exceeds the {len(features)} training rows")
    return KNNClassifier(rows=features.rows.astype(float), labels=features.labels, k=spec.k)
