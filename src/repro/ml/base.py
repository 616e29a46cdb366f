"""Estimator base classes: parameter handling, cloning and mixins."""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict


class BaseEstimator:
    """Minimal scikit-learn-style estimator base.

    Estimator hyperparameters are exactly the keyword arguments of
    ``__init__``; :meth:`get_params` / :meth:`set_params` and :func:`clone`
    rely on that convention, which is also what the AutoML component records
    in the LiDS graph (hyperparameter name/value pairs).
    """

    @classmethod
    def _param_names(cls) -> list:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, parameter in signature.parameters.items()
            if name != "self" and parameter.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self) -> Dict[str, Any]:
        """Return the estimator hyperparameters as a dictionary."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyperparameters; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of ``estimator`` with the same hyperparameters."""
    return type(estimator)(**copy.deepcopy(estimator.get_params()))


class ClassifierMixin:
    """Adds ``predict`` (most probable class) and ``score`` (accuracy) to classifiers."""

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[probabilities.argmax(axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))


class RegressorMixin:
    """Adds a default ``score`` (R^2) to regressors."""

    def score(self, X, y) -> float:
        import numpy as np

        predictions = self.predict(X)
        y = np.asarray(y, dtype=float)
        residual = float(np.sum((y - predictions) ** 2))
        total = float(np.sum((y - y.mean()) ** 2))
        if total == 0.0:
            return 0.0
        return 1.0 - residual / total


class TransformerMixin:
    """Adds ``fit_transform`` to transformers."""

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)
