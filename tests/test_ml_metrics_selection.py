"""Unit tests for ML metrics and model selection."""

import numpy as np
import pytest

from repro.ml import (
    GaussianNB,
    KFold,
    LogisticRegression,
    accuracy_score,
    confusion_matrix,
    cross_val_score,
    f1_score,
    precision_score,
    recall_score,
    train_test_split,
)
from repro.ml.model_selection import cross_val_accuracy, cross_val_f1


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)
        assert accuracy_score([], []) == 0.0

    def test_perfect_binary_f1(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_binary_f1_against_known_value(self):
        # tp=1, fp=1, fn=1 -> precision=recall=0.5 -> f1=0.5
        assert f1_score([1, 0, 1, 0], [1, 1, 0, 0]) == pytest.approx(0.5)

    def test_zero_f1_when_no_positive_predictions(self):
        assert f1_score([1, 1, 0], [0, 0, 0]) == 0.0

    def test_macro_f1_averages_classes(self):
        y_true = ["a", "a", "b", "c"]
        y_pred = ["a", "b", "b", "c"]
        macro = f1_score(y_true, y_pred, average="macro")
        weighted = f1_score(y_true, y_pred, average="weighted")
        assert 0.0 < macro <= 1.0
        assert 0.0 < weighted <= 1.0

    def test_precision_recall_binary(self):
        y_true, y_pred = [1, 0, 1, 0], [1, 1, 0, 0]
        assert precision_score(y_true, y_pred) == pytest.approx(0.5)
        assert recall_score(y_true, y_pred) == pytest.approx(0.5)

    def test_precision_recall_macro(self):
        assert 0.0 <= precision_score(["a", "b"], ["a", "a"], average="macro") <= 1.0
        assert 0.0 <= recall_score(["a", "b"], ["a", "a"], average="macro") <= 1.0

    def test_confusion_matrix(self):
        matrix, labels = confusion_matrix([1, 0, 1], [1, 1, 1])
        assert labels == [0, 1]
        assert matrix[1, 1] == 2
        assert matrix[0, 1] == 1
        assert matrix.sum() == 3


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(40).reshape(20, 2)
        y = np.arange(20)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=1)
        assert len(X_test) == 5
        assert len(X_train) == 15
        assert len(y_train) == 15

    def test_stratified_keeps_both_classes(self):
        X = np.arange(40).reshape(20, 2)
        y = np.array([0] * 15 + [1] * 5)
        _, _, _, y_test = train_test_split(X, y, test_size=0.4, stratify=True, random_state=0)
        assert set(y_test.tolist()) == {0, 1}

    def test_split_is_deterministic(self):
        X = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        first = train_test_split(X, y, random_state=3)
        second = train_test_split(X, y, random_state=3)
        assert np.array_equal(first[1], second[1])


class TestKFoldAndCV:
    def test_kfold_partitions_everything(self):
        splitter = KFold(n_splits=4, random_state=0)
        X = np.arange(20)
        seen = []
        for train_idx, test_idx in splitter.split(X):
            assert len(set(train_idx) & set(test_idx)) == 0
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(20))

    def test_kfold_requires_two_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_cross_val_score_reasonable(self):
        rng = np.random.RandomState(0)
        X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(4, 1, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        scores = cross_val_score(GaussianNB(), X, y, cv=3)
        assert scores.mean() > 0.8

    def test_cross_val_unknown_scoring(self):
        with pytest.raises(ValueError):
            cross_val_score(GaussianNB(), np.zeros((4, 1)), [0, 1, 0, 1], scoring="nope")

    def test_cross_val_f1_switches_to_weighted_for_multiclass(self):
        rng = np.random.RandomState(1)
        X = np.vstack([rng.normal(i * 3, 0.5, (20, 2)) for i in range(3)])
        y = np.array([0] * 20 + [1] * 20 + [2] * 20)
        score = cross_val_f1(LogisticRegression(max_iter=50), X, y, cv=3)
        assert score > 0.7

    def test_cross_val_accuracy_bounds(self):
        rng = np.random.RandomState(2)
        X = rng.normal(size=(40, 3))
        y = rng.randint(0, 2, 40)
        score = cross_val_accuracy(GaussianNB(), X, y, cv=4)
        assert 0.0 <= score <= 1.0


class TestDegenerateFolds:
    def test_single_class_fold_scores_zero_with_warning(self):
        from repro.ml.model_selection import DegenerateFoldWarning

        # Sorted labels + unshuffled-looking tiny data make it likely a fold
        # sees one class; force it outright with an all-but-one-class vector.
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.array([0] * 9 + [1])
        with pytest.warns(DegenerateFoldWarning):
            scores = cross_val_score(GaussianNB(), X, y, cv=5)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.any(scores == 0.0)

    def test_all_one_class_never_raises(self):
        from repro.ml.model_selection import DegenerateFoldWarning

        X = np.random.RandomState(0).normal(size=(12, 2))
        y = np.zeros(12, dtype=int)
        with pytest.warns(DegenerateFoldWarning):
            score = cross_val_f1(GaussianNB(), X, y, cv=3)
        assert score == 0.0


class _FailsOnOddFolds(GaussianNB):
    """Fits like GaussianNB, but raises when the training split's first row is odd-indexed."""

    def fit(self, X, y):
        if int(X[0, 0]) % 2:
            raise ArithmeticError("injected")
        return super().fit(X, y)


class TestFailedFits:
    def test_raising_fit_scores_zero_with_a_typed_warning(self):
        from repro.ml.model_selection import FitFailedWarning

        rng = np.random.RandomState(0)
        X = np.column_stack([np.arange(40), rng.normal(size=40)]).astype(float)
        y = rng.randint(0, 2, 40)
        with pytest.warns(FitFailedWarning) as caught:
            scores = cross_val_score(_FailsOnOddFolds(), X, y, cv=4)
        failed = [warning.message for warning in caught if isinstance(warning.message, FitFailedWarning)]
        assert 0 < len(failed) < 4, "the fixture must fail some folds, not all"
        assert all(scores[message.fold] == 0.0 for message in failed)
        assert all("ArithmeticError('injected')" == message.error for message in failed)
        assert "ArithmeticError('injected')" in str(failed[0])

    def test_broken_plan_scores_zero_with_a_typed_warning(self):
        from repro.automl.evolution.fitness import execute_plan
        from repro.ml.model_selection import FitFailedWarning

        X = np.random.RandomState(0).normal(size=(12, 2))
        with pytest.warns(FitFailedWarning) as caught:
            # Not a plan at all: cross-validation itself cannot start.
            assert execute_plan({}, X, np.arange(12) % 2, cv=1, seed=0) == 0.0
        assert caught[0].message.fold is None
