"""Trend direction predictors: fitted classifiers, a dial-in oracle, and
externally supplied direction tables.

All decision rules break ties toward UP so results are reproducible:
logistic scores use >= 0.5, nearest-neighbor and majority votes use
count(UP) >= count(DOWN). A seeded oracle is a pure function of its
seed: each call takes one uniform draw per prediction from the start of
the seed's stream, so equal truths give equal directions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, _require_finite
from .ingest import FeatureMatrix

__all__ = [
    "ClassifierKind",
    "GaussianNBClassifier",
    "KNNClassifier",
    "LogisticClassifier",
    "MajorityClassifier",
    "OracleTrendPredictor",
    "TrendPredictorSpec",
    "fit_classifier",
]

NB_VARIANCE_FLOOR = 1e-9


class ClassifierKind(enum.Enum):
    MAJORITY = "majority"
    LOGISTIC = "logistic"
    GAUSSIAN_NB = "gaussian_nb"
    KNN = "knn"
    ORACLE = "oracle"
    EXTERNAL = "external"


@dataclass(frozen=True, eq=False)
class TrendPredictorSpec:
    """Declarative classifier choice; parameters must match the kind.

    source: +1/-1 directions indexed by series position, NaN where absent
        (EXTERNAL only); read a time_index,direction CSV with
        load_external_directions, which checks its indices against the series.

    Specs compare and hash by identity, as an array source has no single
    truth value.
    """

    kind: ClassifierKind
    k: int | None = None
    learning_rate: float | None = None
    iterations: int | None = None
    accuracy: float | None = None
    seed: int | None = None
    source: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ClassifierKind):
            try:
                object.__setattr__(self, "kind", ClassifierKind(self.kind))
            except ValueError:
                raise ConfigError(f"unknown classifier kind: {self.kind!r}") from None
        allowed = {
            ClassifierKind.MAJORITY: set(),
            ClassifierKind.LOGISTIC: {"learning_rate", "iterations"},
            ClassifierKind.GAUSSIAN_NB: set(),
            ClassifierKind.KNN: {"k"},
            ClassifierKind.ORACLE: {"accuracy", "seed"},
            ClassifierKind.EXTERNAL: {"source"},
        }[self.kind]
        for name in ("k", "learning_rate", "iterations", "accuracy", "seed", "source"):
            if getattr(self, name) is not None and name not in allowed:
                raise ConfigError(f"{name} is not a parameter of the {self.kind.value} classifier")
        if self.kind is ClassifierKind.KNN:
            if self.k is None or self.k < 1:
                raise ConfigError(f"KNN needs k >= 1, got {self.k}")
        elif self.kind is ClassifierKind.LOGISTIC:
            rate = self.learning_rate
            if rate is None or not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"logistic learning rate must be finite and positive, got {rate}")
            if self.iterations is None or self.iterations < 1:
                raise ConfigError(f"logistic iteration count must be >= 1, got {self.iterations}")
        elif self.kind is ClassifierKind.ORACLE:
            if self.accuracy is None or not 0.0 <= self.accuracy <= 1.0:
                raise ConfigError(f"oracle accuracy must lie in [0, 1], got {self.accuracy}")
            if self.seed is None or self.seed < 0:
                raise ConfigError(f"oracle classifier needs a non-negative seed, got {self.seed}")
        elif self.kind is ClassifierKind.EXTERNAL:
            if not isinstance(self.source, np.ndarray):
                raise ConfigError(
                    "external classifier needs a position-indexed direction array, got "
                    f"{self.source!r}; read a file with load_external_directions(path, series)"
                )

    @classmethod
    def majority(cls) -> "TrendPredictorSpec":
        return cls(ClassifierKind.MAJORITY)

    @classmethod
    def logistic(cls, learning_rate: float = 0.1, iterations: int = 1000) -> "TrendPredictorSpec":
        return cls(ClassifierKind.LOGISTIC, learning_rate=learning_rate, iterations=iterations)

    @classmethod
    def gaussian_nb(cls) -> "TrendPredictorSpec":
        return cls(ClassifierKind.GAUSSIAN_NB)

    @classmethod
    def knn(cls, k: int = 5) -> "TrendPredictorSpec":
        return cls(ClassifierKind.KNN, k=k)

    @classmethod
    def oracle(cls, accuracy: float, seed: int = 0) -> "TrendPredictorSpec":
        return cls(ClassifierKind.ORACLE, accuracy=accuracy, seed=seed)

    @classmethod
    def external(cls, source: np.ndarray) -> "TrendPredictorSpec":
        return cls(ClassifierKind.EXTERNAL, source=source)


@dataclass(frozen=True)
class MajorityClassifier:
    """Always predicts the most frequent training direction (tie: UP)."""

    direction: int

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        return np.full(rows.shape[0], self.direction, dtype=int)


@dataclass(frozen=True)
class LogisticClassifier:
    """Logistic regression trained by full-batch gradient descent.

    Features are standardized with training statistics; weights start at
    zero, so with no informative gradient the model predicts UP (score
    exactly 0.5). loss_history holds the mean log-loss before the first
    update and after each one: the mean softplus of the signed margin,
    max(m, 0) + log1p(exp(-|z|)), computed from the same exp(-|z|) that
    gives the sigmoid for that step's gradient.
    """

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    loss_history: tuple[float, ...]

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
    move. Each call draws one uniform per prediction from the start of
    the stream of ``seed``, so one oracle always gives the same
    directions for the same truths. For a flat truth there is no correct
    answer; the same draw then picks UP or DOWN evenly.
    """

    accuracy: float
    seed: int | np.random.SeedSequence

    def draw_many(self, truths: np.ndarray) -> np.ndarray:
        """Draws for +1/-1/0 truth signs (0 meaning flat)."""
        u = np.random.default_rng(self.seed).random(truths.size)
        flat = truths == 0
        # a flat truth becomes UP below 0.5 and DOWN otherwise
        signed = truths + flat
        return np.where(u < np.where(flat, 0.5, self.accuracy), signed, -signed)


def _fit_logistic(features: FeatureMatrix, learning_rate: float, iterations: int) -> LogisticClassifier:
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
    losses = []
    # a diverging step size overflows; that is reported below, not warned about
    with np.errstate(all="ignore"):
        for step in range(iterations + 1):
            z = X @ w + b
            # one exp(-|z|) serves the stable sigmoid and the stable softplus
            ez = np.exp(-np.abs(z))
            losses.append(float(np.mean(np.maximum(margin_sign * z, 0.0) + np.log1p(ez))))
            if step == iterations:
                break
            d = 1.0 + ez
            gap = np.where(z >= 0, 1.0 / d, ez / d) - targets
            w = w - learning_rate * (X.T @ gap) / m
            b = b - learning_rate * float(np.mean(gap))
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise NumericError(f"logistic fit diverged to non-finite weights (learning rate {learning_rate})")
    w.flags.writeable = False
    return LogisticClassifier(
        weights=w, bias=b, feature_mean=mean, feature_scale=scale, loss_history=tuple(losses)
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
    if spec.kind is ClassifierKind.ORACLE:
        return OracleTrendPredictor(accuracy=spec.accuracy, seed=spec.seed)
    if spec.kind is ClassifierKind.EXTERNAL:
        return spec.source
    if features is None:
        raise ConfigError(f"{spec.kind.value} classifier needs a training feature matrix")
    if len(features) == 0:
        raise DataError("training feature matrix is empty")
    if spec.kind is ClassifierKind.MAJORITY:
        ups = int(np.count_nonzero(features.labels == 1))
        direction = 1 if ups >= len(features) - ups else -1
        return MajorityClassifier(direction=direction)
    if spec.kind is ClassifierKind.LOGISTIC:
        if np.unique(features.labels).size < 2:
            raise DataError("logistic regression needs both directions in the training set")
        return _fit_logistic(features, spec.learning_rate, spec.iterations)
    if spec.kind is ClassifierKind.GAUSSIAN_NB:
        return _fit_gaussian_nb(features)
    if spec.kind is ClassifierKind.KNN:
        if spec.k > len(features):
            raise ConfigError(f"KNN k={spec.k} exceeds the {len(features)} training rows")
        return KNNClassifier(rows=features.rows.astype(float), labels=features.labels, k=spec.k)
    raise ConfigError(f"unknown classifier kind: {spec.kind}")
