"""Classification metrics: accuracy, precision, recall, F1, confusion matrix."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_labels(values: Sequence) -> np.ndarray:
    return np.asarray(list(values))


def accuracy_score(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true, y_pred = _as_labels(y_true), _as_labels(y_pred)
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: Sequence, y_pred: Sequence):
    """Return ``(matrix, labels)`` where ``matrix[i, j]`` counts true label
    ``labels[i]`` predicted as ``labels[j]``."""
    y_true, y_pred = _as_labels(y_true), _as_labels(y_pred)
    labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()), key=str)
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for true, pred in zip(y_true, y_pred):
        matrix[index[true], index[pred]] += 1
    return matrix, labels


def _per_class_counts(y_true: np.ndarray, y_pred: np.ndarray, label) -> tuple:
    tp = int(np.sum((y_true == label) & (y_pred == label)))
    fp = int(np.sum((y_true != label) & (y_pred == label)))
    fn = int(np.sum((y_true == label) & (y_pred != label)))
    return tp, fp, fn


def _resolve_positive(y_true: np.ndarray, y_pred: np.ndarray, pos_label):
    if pos_label is not None:
        return pos_label
    labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()), key=str)
    return labels[-1] if labels else 1


def _per_class_scores(y_true: Sequence, y_pred: Sequence, average: str, pos_label) -> tuple:
    """``(precisions, recalls, f1s, supports)`` of the positive class alone for
    ``average='binary'``, else of every true label; all empty when ``y_true`` is."""
    y_true, y_pred = _as_labels(y_true), _as_labels(y_pred)
    if y_true.size == 0:
        return [], [], [], []
    if average == "binary":
        labels = [_resolve_positive(y_true, y_pred, pos_label)]
    else:
        labels = sorted(set(y_true.tolist()), key=str)
    rows = []
    for label in labels:
        tp, fp, fn = _per_class_counts(y_true, y_pred, label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append((precision, recall, f1, int(np.sum(y_true == label))))
    return tuple(zip(*rows))


def _mean(scores: Sequence) -> float:
    return float(np.mean(scores)) if scores else 0.0


def precision_score(y_true: Sequence, y_pred: Sequence, average: str = "binary", pos_label=None) -> float:
    """Precision for binary (``average='binary'``) or macro averaging."""
    return _mean(_per_class_scores(y_true, y_pred, average, pos_label)[0])


def recall_score(y_true: Sequence, y_pred: Sequence, average: str = "binary", pos_label=None) -> float:
    """Recall for binary or macro averaging."""
    return _mean(_per_class_scores(y_true, y_pred, average, pos_label)[1])


def f1_score(y_true: Sequence, y_pred: Sequence, average: str = "binary", pos_label=None) -> float:
    """F1 score.

    ``average='binary'`` scores the positive class only (like scikit-learn's
    default); ``'macro'`` averages per-class F1; ``'weighted'`` weights by
    class support.  The cleaning/AutoML experiments report macro/weighted F1
    for multi-class tasks and binary F1 otherwise.
    """
    _, _, f1s, supports = _per_class_scores(y_true, y_pred, average, pos_label)
    if average == "weighted" and f1s:
        total = sum(supports)
        return float(sum(f * s for f, s in zip(f1s, supports)) / total) if total else 0.0
    return _mean(f1s)
