"""Trend-adjusted time series forecasting.

A base forecaster produces a one-step-ahead value; a direction
classifier predicts whether the series moves up or down next. When the
forecast's implied direction disagrees with the classifier, the forecast
is replaced by a minimal step of size alpha in the predicted direction.
If the classifier calls directions more reliably than the forecaster
does, the adjustment reduces expected squared error; :mod:`tats.theory`
quantifies the expected reduction and :mod:`tats.montecarlo` checks it
empirically.
"""

from . import classifiers, core, engine, errors, forecasters, ingest, metrics, montecarlo, theory
from .classifiers import *  # noqa: F403
from .core import *  # noqa: F403
from .engine import *  # noqa: F403
from .errors import *  # noqa: F403
from .forecasters import *  # noqa: F403
from .ingest import *  # noqa: F403
from .metrics import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(
    name for module in (classifiers, core, engine, errors, forecasters, ingest, metrics, montecarlo, theory)
    for name in module.__all__
)
