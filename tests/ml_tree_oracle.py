"""The seed CART and its two ensembles: the differential oracle.

What ``repro.ml.tree`` / ``repro.ml.ensemble`` were before the trees became
flat arrays, moved out of ``src/`` unchanged: a tree is a web of ``_Node``
objects, ``_TreeBuilder._best_split`` visits feature x threshold in a Python
loop and scores every partition with ``np.bincount`` / ``np.var`` on the two
compacted halves, ``predict`` walks the nodes row by row, boosting re-predicts
its training matrix after every tree and the forest re-aligns every tree's
``classes_`` label by label.  Slow and obviously right;
``tests/test_ml_tree_parity.py`` holds the production estimators to it node
for node and prediction for prediction.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin


class _Node:
    """A binary tree node; leaves carry a prediction value."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature: Optional[int] = None
        self.threshold: float = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value = value

    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return 1.0 - float(np.sum(proportions**2))


class _TreeBuilder:
    """Shared recursive splitting logic for classification and regression trees."""

    def __init__(
        self,
        max_depth: int,
        min_samples_split: int,
        max_features: Optional[int],
        rng: np.random.RandomState,
        classification: bool,
        n_classes: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.classification = classification
        self.n_classes = n_classes

    def build(self, X: np.ndarray, y: np.ndarray, depth: int = 0) -> _Node:
        node = _Node(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or self._is_pure(y)
        ):
            return node
        feature, threshold = self._best_split(X, y)
        if feature is None:
            return node
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self.build(X[mask], y[mask], depth + 1)
        node.right = self.build(X[~mask], y[~mask], depth + 1)
        return node

    def _is_pure(self, y: np.ndarray) -> bool:
        if self.classification:
            return len(np.unique(y)) <= 1
        return float(np.var(y)) < 1e-12

    def _leaf_value(self, y: np.ndarray):
        if self.classification:
            counts = np.bincount(y.astype(int), minlength=self.n_classes)
            return counts
        return float(y.mean()) if y.size else 0.0

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        best_feature, best_threshold, best_score = None, 0.0, np.inf
        for feature in self._candidate_features(X.shape[1]):
            values = X[:, feature]
            distinct = np.unique(values)
            if len(distinct) < 2:
                continue
            if len(distinct) > 32:
                quantiles = np.percentile(values, np.linspace(5, 95, 16))
                thresholds = np.unique(quantiles)
            else:
                thresholds = (distinct[:-1] + distinct[1:]) / 2.0
            for threshold in thresholds:
                mask = values <= threshold
                left, right = y[mask], y[~mask]
                if left.size == 0 or right.size == 0:
                    continue
                score = self._impurity(left, right)
                if score < best_score:
                    best_feature, best_threshold, best_score = int(feature), float(threshold), score
        return best_feature, best_threshold

    def _impurity(self, left: np.ndarray, right: np.ndarray) -> float:
        n = left.size + right.size
        if self.classification:
            left_counts = np.bincount(left.astype(int), minlength=self.n_classes)
            right_counts = np.bincount(right.astype(int), minlength=self.n_classes)
            return (left.size * _gini(left_counts) + right.size * _gini(right_counts)) / n
        return (left.size * float(np.var(left)) + right.size * float(np.var(right))) / n


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classifier with Gini impurity."""

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_split: int = 2,
        max_features: Optional[int] = None,
        random_state: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self._root: Optional[_Node] = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(list(y))
        self.classes_ = np.unique(y)
        index = {label: i for i, label in enumerate(self.classes_)}
        encoded = np.asarray([index[label] for label in y])
        builder = _TreeBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            rng=np.random.RandomState(self.random_state),
            classification=True,
            n_classes=len(self.classes_),
        )
        self._root = builder.build(X, encoded)
        return self

    def _leaf_for(self, row: np.ndarray) -> _Node:
        node = self._root
        while node is not None and not node.is_leaf():
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X) -> np.ndarray:
        if self._root is None or self.classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        probabilities = np.zeros((X.shape[0], len(self.classes_)))
        for i in range(X.shape[0]):
            counts = self._leaf_for(X[i]).value
            total = counts.sum()
            probabilities[i] = counts / total if total else 1.0 / len(self.classes_)
        return probabilities

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regressor with variance reduction."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        max_features: Optional[int] = None,
        random_state: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        builder = _TreeBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            rng=np.random.RandomState(self.random_state),
            classification=False,
        )
        self._root = builder.build(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("DecisionTreeRegressor is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for i in range(X.shape[0]):
            node = self._root
            while not node.is_leaf():
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


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
        self._trees: List[DecisionTreeClassifier] = []

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
        y = np.asarray(list(y))
        self.classes_ = np.unique(y)
        rng = np.random.RandomState(self.random_state)
        n_samples, n_features = X.shape
        max_features = self._resolve_max_features(n_features)
        self._trees = []
        for i in range(self.n_estimators):
            indices = rng.randint(0, n_samples, size=n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                random_state=self.random_state + i,
            )
            tree.fit(X[indices], y[indices])
            self._trees.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if not self._trees or self.classes_ is None:
            raise RuntimeError("RandomForestClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        aggregate = np.zeros((X.shape[0], len(self.classes_)))
        class_index = {label: i for i, label in enumerate(self.classes_)}
        for tree in self._trees:
            tree_probabilities = tree.predict_proba(X)
            for j, label in enumerate(tree.classes_):
                aggregate[:, class_index[label]] += tree_probabilities[:, j]
        aggregate /= len(self._trees)
        return aggregate

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Gradient-boosted regression trees on the logistic loss.

    Every target, binary included, is boosted one-vs-rest: each stage grows
    one tree per class on that class's residuals against its own log-odds.  This estimator stands in for XGBoost's
    ``XGBClassifier`` in the pipeline corpus and the AutoML search space.
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
        self._stages: List[List[DecisionTreeRegressor]] = []
        self._base_scores: Optional[np.ndarray] = None

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(list(y))
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        targets = np.zeros((len(y), n_classes))
        for j, label in enumerate(self.classes_):
            targets[:, j] = (y == label).astype(float)
        priors = targets.mean(axis=0).clip(1e-6, 1 - 1e-6)
        self._base_scores = np.log(priors / (1 - priors))
        scores = np.tile(self._base_scores, (len(y), 1))
        self._stages = [[] for _ in range(n_classes)]
        for stage in range(self.n_estimators):
            probabilities = 1.0 / (1.0 + np.exp(-scores))
            for j in range(n_classes):
                residual = targets[:, j] - probabilities[:, j]
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    random_state=self.random_state + stage * n_classes + j,
                )
                tree.fit(X, residual)
                update = tree.predict(X)
                scores[:, j] += self.learning_rate * update
                self._stages[j].append(tree)
        return self

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.tile(self._base_scores, (X.shape[0], 1))
        for j, trees in enumerate(self._stages):
            for tree in trees:
                scores[:, j] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        if self._base_scores is None or self.classes_ is None:
            raise RuntimeError("GradientBoostingClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        scores = self._decision_scores(X)
        probabilities = 1.0 / (1.0 + np.exp(-scores))
        totals = probabilities.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return probabilities / totals

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
