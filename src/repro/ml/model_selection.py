"""Train/test splitting, k-fold cross-validation and scoring helpers."""

from __future__ import annotations

import warnings
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import BaseEstimator, clone
from repro.ml.metrics import accuracy_score, f1_score


class DegenerateFoldWarning(UserWarning):
    """A cross-validation fold was empty or single-class and scored 0.0.

    Emitted instead of raising so a budgeted AutoML search survives the
    pathological splits that small or heavily imbalanced synthetic datasets
    produce mid-run; callers that care (tests, benchmarks) can assert on or
    silence it with the standard ``warnings`` machinery.
    """


class FitFailedWarning(UserWarning):
    """A fit or predict raised inside a cross-validation and scored 0.0.

    The search outlives one broken candidate, but not silently: an estimator
    bug would otherwise only show as a quietly worse result.  ``fold`` is
    ``None`` for a failure outside the fold loop; ``error`` is its ``repr``.
    """

    def __init__(self, fold: Optional[int], error: str):
        super().__init__(f"fold {fold} failed and scores 0.0: {error}")
        self.fold = fold
        self.error = error


def train_test_split(
    X: np.ndarray,
    y: Sequence,
    test_size: float = 0.25,
    random_state: int = 0,
    stratify: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split features and labels into train and test partitions.

    Returns ``X_train, X_test, y_train, y_test`` (scikit-learn argument
    order).  When ``stratify`` is set the split preserves label proportions.
    """
    X = np.asarray(X)
    y = np.asarray(list(y))
    n = len(y)
    rng = np.random.RandomState(random_state)
    if stratify:
        test_indices: List[int] = []
        for label in np.unique(y):
            label_indices = np.where(y == label)[0]
            rng.shuffle(label_indices)
            take = max(1, int(round(test_size * len(label_indices))))
            test_indices.extend(label_indices[:take].tolist())
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_indices] = True
    else:
        order = rng.permutation(n)
        take = max(1, int(round(test_size * n)))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:take]] = True
    train_mask = ~test_mask
    return X[train_mask], X[test_mask], y[train_mask], y[test_mask]


class KFold:
    """K-fold cross-validation splitter (optionally shuffled)."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int = 0):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y=None) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train indices, test indices)`` pairs."""
        n = len(X)
        indices = np.arange(n)
        if self.shuffle:
            rng = np.random.RandomState(self.random_state)
            rng.shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


def _resolve_scorer(scoring: str) -> Callable:
    if scoring == "accuracy":
        return lambda y_true, y_pred: accuracy_score(y_true, y_pred)
    if scoring in ("f1", "f1_binary"):
        return lambda y_true, y_pred: f1_score(y_true, y_pred, average="binary")
    if scoring == "f1_macro":
        return lambda y_true, y_pred: f1_score(y_true, y_pred, average="macro")
    if scoring == "f1_weighted":
        return lambda y_true, y_pred: f1_score(y_true, y_pred, average="weighted")
    raise ValueError(f"unknown scoring {scoring!r}")


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: Sequence,
    cv: int = 5,
    scoring: str = "accuracy",
    random_state: int = 0,
) -> np.ndarray:
    """Evaluate ``estimator`` with k-fold cross-validation.

    Degenerate folds and folds whose fit or predict raises score 0.0, with a
    :class:`DegenerateFoldWarning` / :class:`FitFailedWarning`, so the harness
    never crashes on degenerate synthetic datasets.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(list(y))
    scorer = _resolve_scorer(scoring)
    n_splits = min(cv, max(2, len(y) // 2))
    splitter = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    scores = []
    for fold, (train_idx, test_idx) in enumerate(splitter.split(X, y)):
        if (
            len(train_idx) == 0
            or len(test_idx) == 0
            or len(np.unique(y[train_idx])) < 2
        ):
            warnings.warn(
                f"fold {fold} is degenerate (empty or single-class); scoring 0.0",
                DegenerateFoldWarning,
                stacklevel=2,
            )
            scores.append(0.0)
            continue
        model = clone(estimator)
        try:
            model.fit(X[train_idx], y[train_idx])
            predictions = model.predict(X[test_idx])
            scores.append(scorer(y[test_idx], predictions))
        except Exception as error:  # noqa: BLE001 — any estimator, any failure
            warnings.warn(FitFailedWarning(fold, repr(error)), stacklevel=2)
            scores.append(0.0)
    return np.asarray(scores, dtype=float)


def cross_val_f1(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: Sequence,
    cv: int = 5,
    random_state: int = 0,
) -> float:
    """Mean F1 across folds, switching to weighted F1 for multi-class targets.

    This is the headline metric of the data-cleaning evaluation (Table 5).
    """
    y_array = np.asarray(list(y))
    average = "binary" if len(np.unique(y_array)) <= 2 else "weighted"
    scoring = "f1" if average == "binary" else "f1_weighted"
    scores = cross_val_score(
        estimator, X, y_array, cv=cv, scoring=scoring, random_state=random_state
    )
    return float(scores.mean()) if scores.size else 0.0


def cross_val_accuracy(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: Sequence,
    cv: int = 5,
    random_state: int = 0,
) -> float:
    """Mean accuracy across folds (metric of the transformation evaluation)."""
    scores = cross_val_score(
        estimator, X, y, cv=cv, scoring="accuracy", random_state=random_state
    )
    return float(scores.mean()) if scores.size else 0.0
