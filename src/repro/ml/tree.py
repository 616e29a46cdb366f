"""CART decision trees (classification and regression) as flat arrays, used
standalone and by the random forest / gradient boosting ensembles.

A fitted tree is five arrays indexed by node id, nodes numbered in preorder
(node, left subtree, right subtree).  A node's split is found in one pass
over a boolean tensor of candidate features x thresholds x rows; the first
minimum in (candidate order, ascending threshold) wins.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin

_PERCENTILES = np.linspace(5, 95, 16)


class _Tree(NamedTuple):
    """``feature`` is -1 at a leaf; ``value`` holds class counts or means."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id of every row of ``X``: the whole matrix descends a level at a time."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        inner = np.flatnonzero(self.feature[node] >= 0)
        while inner.size:
            at = node[inner]
            goes_left = X[inner, self.feature[at]] <= self.threshold[at]
            node[inner] = np.where(goes_left, self.left[at], self.right[at])
            inner = inner[self.feature[node[inner]] >= 0]
        return node


def _thresholds(columns: np.ndarray) -> np.ndarray:
    """Candidate thresholds per feature row, ascending, padded with NaN.

    Midpoints of consecutive distinct values for up to 32 distinct values,
    else the unique 16 percentiles 5..95.  NaNs sort last and never form a
    threshold; a NaN slot compares false with every row, so it scores +inf.
    """
    ordered = np.sort(columns, axis=1)
    below, above = ordered[:, :-1], ordered[:, 1:]
    gaps = above > below
    thresholds = np.where(gaps, (below + above) / 2.0, np.nan)
    used = gaps.sum(axis=1)
    # np.unique counts the NaNs of a column as one more distinct value.
    wide = used + 1 + np.isnan(ordered[:, -1]) > 32
    if wide.any():
        quantiles = np.percentile(columns[wide], _PERCENTILES, axis=1).T
        quantiles[:, 1:][quantiles[:, 1:] == quantiles[:, :-1]] = np.nan
        thresholds[wide] = np.nan
        thresholds[wide, :16] = quantiles
        used[wide] = 16
    return np.sort(thresholds, axis=1)[:, : used.max(initial=0)]


def _gini_scores(goes_left: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Weighted Gini impurity of every partition (row of ``goes_left``)."""
    left = goes_left @ onehot
    counts = np.stack([left, onehot.sum(axis=0) - left])
    sizes = counts.sum(axis=2)
    proportions = counts / np.maximum(sizes, 1.0)[:, :, None]
    gini = 1.0 - (proportions * proportions).sum(axis=2)
    scores = (sizes[0] * gini[0] + sizes[1] * gini[1]) / goes_left.shape[1]
    scores[sizes.min(axis=0) == 0] = np.inf
    return scores


def _variance_layout(goes_left: np.ndarray) -> tuple:
    """Where ``_variance_scores`` puts each row of every partition; no targets needed.

    Each partition's targets are laid out as ``0, left.., 0, right..`` with
    rows in their original order and summed segment by segment, so a side's
    sum adds the same numbers in the same order as ``y[mask].sum()`` does:
    partitions that tie exactly in boosting's two-valued first stage must
    tie (or not) here too.
    """
    n_partitions, n = goes_left.shape
    keys = np.empty((n_partitions, n + 2), dtype=np.int8)
    keys[:, 0], keys[:, -1] = 0, 2
    keys[:, 1:-1] = np.where(goes_left, 1, 3)
    order = np.argsort(keys, axis=1, kind="stable").astype(np.int32)  # half the bytes a cached split keeps
    n_left = goes_left.sum(axis=1)
    sizes = np.stack([n_left, n - n_left], axis=1)
    lengths = sizes.ravel() + 1
    starts = np.cumsum(lengths) - lengths
    divisors = np.maximum(sizes.ravel(), 1).astype(float)
    return order, sizes, lengths, starts, divisors, sizes.min(axis=1) == 0


def _variance_scores(layout: tuple, y: np.ndarray) -> np.ndarray:
    """Weighted variance of every partition in ``layout``, as ``np.var`` of each side of ``y``."""
    order, sizes, lengths, starts, divisors, empty = layout
    segments = np.concatenate(([0.0], y, [0.0]))[order].ravel()
    means = np.add.reduceat(segments, starts) / divisors
    deviations = segments - np.repeat(means, lengths)
    deviations *= deviations
    deviations[starts] = 0.0
    variances = np.add.reduceat(deviations, starts) / divisors
    weighted = sizes * variances.reshape(-1, 2)
    scores = (weighted[:, 0] + weighted[:, 1]) / y.size
    scores[empty] = np.inf
    return scores


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int,
    min_samples_split: int = 2,
    max_features: Optional[int] = None,
    random_state: int = 0,
    rng: Optional[np.random.RandomState] = None,
    cache: Optional[Tuple[dict, dict]] = None,
) -> Tuple[_Tree, np.ndarray]:
    """Grow one tree; returns it with the leaf id of every training row.

    ``y`` holds class ids below ``n_classes``, or regression targets when
    ``n_classes`` is 0.  Per-split feature subsampling draws in preorder from
    ``rng`` as the caller seeded it, else from a new generator seeded ``random_state``.

    ``cache`` is a pair of dicts ``(current, previous)`` that map a row set's
    bytes to its split state ``(candidates, thresholds, goes_left, layout)``:
    none of it depends on ``y``, so trees grown on the same ``X`` with every
    feature a candidate share it.  A lookup reads either dict; every row set
    split here is stored in ``current``.
    """
    n_samples, n_features = X.shape
    columns = np.ascontiguousarray(X.T)
    subsample = max_features is not None and max_features < n_features
    rng = (rng or np.random.RandomState(random_state)) if subsample else None
    if n_classes:
        # Impurity runs over the classes present at the root, as a tree
        # fitted on a bootstrap that lacks a class would see them.
        onehot = np.eye(n_classes)[y][:, np.bincount(y, minlength=n_classes) > 0]
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of = np.zeros(n_samples, dtype=np.intp)
    stack = [(np.arange(n_samples), 0, -1)]
    while stack:
        rows, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            (right if left[parent] >= 0 else left)[parent] = node
        targets = y[rows]
        if n_classes:
            value.append(np.bincount(targets, minlength=n_classes))
            pure = np.count_nonzero(value[node]) <= 1
        else:
            # np.mean and np.var: the same sums without the wrappers.
            mean = np.add.reduce(targets) / max(rows.size, 1)
            spread = targets - mean
            value.append(float(mean))
            pure = np.add.reduce(spread * spread) / max(rows.size, 1) < 1e-12
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_of[rows] = node
        if depth >= max_depth or rows.size < min_samples_split or pure:
            continue
        if cache is not None:
            key = rows.tobytes()
            split = cache[0].get(key) or cache[1].get(key)
        if cache is None or split is None:
            candidates = rng.choice(n_features, size=max_features, replace=False) if subsample else np.arange(n_features)
            values = columns[candidates][:, rows]
            thresholds = _thresholds(values)
            goes_left = (values[:, None, :] <= thresholds[:, :, None]).reshape(-1, rows.size)
            split = candidates, thresholds, goes_left, None if n_classes else _variance_layout(goes_left)
        if cache is not None:
            cache[0][key] = split
        candidates, thresholds, goes_left, layout = split
        if not thresholds.size:
            continue
        scores = _gini_scores(goes_left, onehot[rows]) if n_classes else _variance_scores(layout, targets)
        best = int(np.argmin(scores))
        if not scores[best] < np.inf:
            continue
        feature[node] = int(candidates[best // thresholds.shape[1]])
        threshold[node] = float(thresholds.flat[best])
        stack.append((rows[~goes_left[best]], depth + 1, node))
        stack.append((rows[goes_left[best]], depth + 1, node))
    return _Tree(*map(np.asarray, (feature, threshold, left, right, value))), leaf_of


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
        self._tree: Optional[_Tree] = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        self.classes_, encoded = np.unique(np.asarray(list(y)), return_inverse=True)
        # The hyperparameters are exactly _grow's options.
        self._tree, _ = _grow(np.asarray(X, dtype=float), encoded, len(self.classes_), **self.get_params())
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self._tree is None or self.classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        counts = self._tree.value[self._tree.apply(np.asarray(X, dtype=float))]
        return counts / counts.sum(axis=1, keepdims=True)


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
        self._tree: Optional[_Tree] = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        self._tree, _ = _grow(np.asarray(X, dtype=float), np.asarray(y, dtype=float), 0, **self.get_params())
        return self

    def predict(self, X) -> np.ndarray:
        if self._tree is None:
            raise RuntimeError("DecisionTreeRegressor is not fitted")
        return self._tree.value[self._tree.apply(np.asarray(X, dtype=float))]
