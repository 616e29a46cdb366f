"""Linear models: logistic regression (softmax), linear and ridge regression."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression trained with full-batch gradient descent.

    The hyperparameters mirror scikit-learn's (``C`` is the inverse of the L2
    regularization strength) because those are the names the LiDS graph records
    from abstracted pipelines and feeds to the AutoML search.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        learning_rate: float = 0.1,
        tol: float = 1e-5,
        random_state: int = 0,
    ):
        self.C = C
        self.max_iter = max_iter
        self.learning_rate = learning_rate
        self.tol = tol
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self._scale_mean: Optional[np.ndarray] = None
        self._scale_std: Optional[np.ndarray] = None

    def _standardize(self, X: np.ndarray, fit: bool) -> np.ndarray:
        if fit:
            self._scale_mean = X.mean(axis=0)
            std = X.std(axis=0)
            self._scale_std = np.where(std == 0.0, 1.0, std)
        return (X - self._scale_mean) / self._scale_std

    def fit(self, X, y) -> "LogisticRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(list(y))
        self.classes_ = np.unique(y)
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        X = self._standardize(X, fit=True)
        label_index = {label: i for i, label in enumerate(self.classes_)}
        targets = np.zeros((n_samples, n_classes))
        for i, label in enumerate(y):
            targets[i, label_index[label]] = 1.0
        rng = np.random.RandomState(self.random_state)
        weights = rng.normal(scale=0.01, size=(n_features, n_classes))
        bias = np.zeros(n_classes)
        l2 = 1.0 / max(self.C, 1e-9)
        previous_loss = np.inf
        for _ in range(self.max_iter):
            logits = X @ weights + bias
            logits -= logits.max(axis=1, keepdims=True)
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum(axis=1, keepdims=True)
            gradient_w = X.T @ (probabilities - targets) / n_samples + l2 * weights / n_samples
            gradient_b = (probabilities - targets).mean(axis=0)
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
            loss = -np.mean(np.sum(targets * np.log(probabilities + 1e-12), axis=1))
            if abs(previous_loss - loss) < self.tol:
                break
            previous_loss = loss
        self.coef_ = weights
        self.intercept_ = bias
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.coef_ is None or self.classes_ is None:
            raise RuntimeError("LogisticRegression is not fitted")
        X = np.asarray(X, dtype=float)
        X = self._standardize(X, fit=False)
        logits = X @ self.coef_ + self.intercept_
        logits -= logits.max(axis=1, keepdims=True)
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return probabilities


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via the numpy least-squares solver."""

    def __init__(self):
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        design = np.column_stack([X, np.ones(X.shape[0])])
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearRegression is not fitted")
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized least squares (closed form)."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "RidgeRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        design = np.column_stack([X, np.ones(X.shape[0])])
        gram = design.T @ design + self.alpha * np.eye(design.shape[1])
        solution = np.linalg.solve(gram, design.T @ y)
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("RidgeRegression is not fitted")
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_
