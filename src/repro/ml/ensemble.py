"""Tree ensembles: random forest and gradient boosting.

The random forest is the workhorse of the evaluation (Tables 5 and 6 train a
random-forest classifier on the cleaned / transformed data); gradient boosting
stands in for the XGBoost classifiers that Kaggle pipelines frequently call.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.ml.tree import _Tree, _grow


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 10,
        min_samples_split: int = 2,
        max_features: str = "sqrt",
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self._trees: List[_Tree] = []

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        if self.max_features in (None, "all"):
            return None
        return max(1, int(self.max_features))

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        self.classes_, encoded = np.unique(np.asarray(list(y)), return_inverse=True)
        rng, trees_rng = np.random.RandomState(self.random_state), np.random.RandomState()
        n_samples, n_features = X.shape
        max_features = self._resolve_max_features(n_features)
        n_classes = len(self.classes_)
        self._trees = []
        for i in range(self.n_estimators):
            indices = rng.randint(0, n_samples, size=n_samples)
            trees_rng.seed(self.random_state + i)  # ~3 us; a new RandomState seeds from OS entropy first, ~200 us
            options = (self.max_depth, self.min_samples_split, max_features)
            tree, _ = _grow(X[indices], encoded[indices], n_classes, *options, rng=trees_rng)
            self._trees.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if not self._trees or self.classes_ is None:
            raise RuntimeError("RandomForestClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        aggregate = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self._trees:
            counts = tree.value[tree.apply(X)]
            aggregate += counts / counts.sum(axis=1, keepdims=True)
        aggregate /= len(self._trees)
        return aggregate


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Gradient-boosted regression trees on the logistic loss.

    Every target, binary included, is boosted one-vs-rest: each stage grows
    one tree per class on that class's residuals against its own log-odds.
    This estimator stands in for XGBoost's ``XGBClassifier`` in the pipeline
    corpus and the AutoML search space.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self._stages: List[List[_Tree]] = []
        self._base_scores: Optional[np.ndarray] = None

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=float)
        self.classes_, encoded = np.unique(np.asarray(list(y)), return_inverse=True)
        n_classes = len(self.classes_)
        targets = np.eye(n_classes)[encoded]
        priors = targets.mean(axis=0).clip(1e-6, 1 - 1e-6)
        self._base_scores = np.log(priors / (1 - priors))
        scores = np.tile(self._base_scores, (len(encoded), 1))
        self._stages = [[] for _ in range(n_classes)]
        # Row sets' split state, kept for the stage that used them and the
        # next: a stage's trees mostly split the row sets the last one did.
        previous: dict = {}
        for stage in range(self.n_estimators):
            probabilities = 1.0 / (1.0 + np.exp(-scores))
            current: dict = {}
            for j in range(n_classes):
                residual = targets[:, j] - probabilities[:, j]
                # Every feature at every split: the tree draws no random numbers.
                tree, leaf_of = _grow(X, residual, 0, self.max_depth, cache=(current, previous))
                scores[:, j] += self.learning_rate * tree.value[leaf_of]
                self._stages[j].append(tree)
            previous = current
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self._base_scores is None or self.classes_ is None:
            raise RuntimeError("GradientBoostingClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        scores = np.tile(self._base_scores, (X.shape[0], 1))
        for j, trees in enumerate(self._stages):
            for tree in trees:
                scores[:, j] += self.learning_rate * tree.value[tree.apply(X)]
        probabilities = 1.0 / (1.0 + np.exp(-scores))
        totals = probabilities.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return probabilities / totals
