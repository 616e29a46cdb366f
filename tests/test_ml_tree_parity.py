"""Flat-array CART vs the seed node-web CART (``tests/ml_tree_oracle.py``).

Every production tree must equal the oracle's node for node — ``feature`` and
``threshold`` exactly, ``value`` exactly, children in the same preorder slots
— and every ``predict`` / ``predict_proba`` must be ``array_equal``.  Exact,
not close: boosting's first-stage residuals take two values, so different
splits tie to the last bit and the winner is the first in (feature, threshold)
order; a scoring pass that summed in another order would pick another split
and quietly change which pipeline an AutoML search returns.
"""

import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import ml_tree_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automl.evolution import EvolutionConfig, EvolutionarySearch, FitnessCache, FitnessEvaluator, PriorBook
from repro.automl.search_space import HYPERPARAMETER_SPACES
from repro.datagen import (
    generate_automl_datasets,
    generate_classification_dataset,
    generate_cleaning_datasets,
    generate_transformation_datasets,
)
from repro.ml import DecisionTreeClassifier, GradientBoostingClassifier, RandomForestClassifier
from repro.ml import ensemble as ml_ensemble
from repro.ml import tree as ml_tree
from repro.ml.model_selection import DegenerateFoldWarning, FitFailedWarning, KFold, cross_val_score
from repro.ml.tree import DecisionTreeRegressor


# ---------------------------------------------------------------- comparison
def oracle_arrays(root):
    """The oracle's node web as the production tree's five preorder arrays."""
    feature, threshold, left, right, value = [], [], [], [], []

    def visit(node):
        index = len(feature)
        feature.append(-1 if node.is_leaf() else node.feature)
        threshold.append(0.0 if node.is_leaf() else node.threshold)
        value.append(node.value)
        left.append(-1)
        right.append(-1)
        if not node.is_leaf():
            left[index] = visit(node.left)
            right[index] = visit(node.right)
        return index

    visit(root)
    return feature, threshold, left, right, value


def assert_same_tree(tree, root, where, present=slice(None)):
    """``present``: the forest's classes this tree's bootstrap held (the oracle tree knows no others)."""
    feature, threshold, left, right, value = oracle_arrays(root)
    assert tree.feature.tolist() == feature, f"{where}: split features differ"
    assert np.array_equal(tree.threshold, threshold), f"{where}: thresholds differ"
    assert tree.left.tolist() == left and tree.right.tolist() == right, f"{where}: children differ"
    assert np.array_equal(tree.value[:, present] if tree.value.ndim == 2 else tree.value, np.asarray(value)), (
        f"{where}: node values differ"
    )
    if tree.value.ndim == 2:
        assert tree.value[:, present].sum() == tree.value.sum(), f"{where}: counted a class the bootstrap lacks"


def assert_parity(production, reference, X, y, where):
    ours, theirs = production.fit(X, y), reference.fit(X, y)
    if hasattr(ours, "_tree"):
        pairs = [(ours._tree, theirs._root, slice(None))]
    elif hasattr(ours, "_stages"):
        pairs = [
            (tree, fitted._root, slice(None))
            for grown, expected in zip(ours._stages, theirs._stages)
            for tree, fitted in zip(grown, expected)
        ]
        assert [len(stage) for stage in ours._stages] == [len(stage) for stage in theirs._stages], where
    else:
        pairs = [
            (tree, fitted._root, np.isin(ours.classes_, fitted.classes_))
            for tree, fitted in zip(ours._trees, theirs._trees)
        ]
        assert len(ours._trees) == len(theirs._trees), where
    for index, (tree, root, present) in enumerate(pairs):
        assert_same_tree(tree, root, f"{where} tree {index}", present)
    assert np.array_equal(ours.predict(X), theirs.predict(X)), f"{where}: predict differs"
    if hasattr(ours, "predict_proba"):
        assert np.array_equal(ours.predict_proba(X), theirs.predict_proba(X)), f"{where}: predict_proba differs"
    return ours, theirs


# ------------------------------------------------------------------ fixtures
def _estimator_fixtures():
    """``test_ml_estimators.py``'s two: 80 x 3 binary and 75 x 2 three-class blobs."""
    rng = np.random.RandomState(0)
    binary = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(3, 1, (40, 3))])
    rng = np.random.RandomState(1)
    multiclass = np.vstack([rng.normal(i * 3, 0.8, (25, 2)) for i in range(3)])
    return {
        "blobs-binary": (binary, np.array([0] * 40 + [1] * 40)),
        "blobs-3class": (multiclass, np.array([0] * 25 + [1] * 25 + [2] * 25)),
    }


def _session_fixtures():
    """The e2e ``automate`` pool: each 20-row table at both 2-fold training halves."""
    fixtures = {}
    for generator in (generate_cleaning_datasets, generate_transformation_datasets, generate_automl_datasets):
        dataset = generator(count=4, seed=0, base_rows=20)[0]
        X, _ = dataset.table.to_feature_matrix(target=dataset.target)
        y = dataset.table.target_vector(dataset.target)
        for fold, (train, _) in enumerate(KFold(n_splits=2, shuffle=True, random_state=0).split(X)):
            fixtures[f"{dataset.name}-fold{fold}"] = (np.asarray(X, dtype=float)[train], np.asarray(y)[train])
    return fixtures


def _edge_fixtures():
    rng = np.random.RandomState(2)
    base = rng.normal(size=(24, 3))
    labels = (base[:, 0] + 0.5 * base[:, 1] > 0).astype(int)
    with_nans = base.copy()
    with_nans[rng.rand(24) < 0.3, 0] = np.nan
    with_nans[rng.rand(24) < 0.2, 2] = np.nan
    # 32 distinct finite values and NaNs make 33 distinct values for
    # np.unique: the informative column must take the percentile path (where
    # the NaNs void every threshold), not 31 midpoints.
    boundary = np.column_stack([np.r_[np.arange(32.0), [np.nan] * 4], rng.normal(size=36)])
    boundary_labels = np.r_[np.arange(32) >= 16, [True] * 4].astype(int)
    under = np.column_stack([np.r_[np.arange(31.0), [np.nan] * 4], rng.normal(size=35)])
    under_labels = np.r_[np.arange(31) >= 16, [True] * 4].astype(int)
    wide = rng.normal(size=(60, 2)).round(1)
    many = rng.normal(size=(45, 3))
    return {
        "duplicated-column": (base[:, [0, 1, 0, 2, 1]], labels),
        "binary-features": ((rng.rand(30, 6) < 0.5).astype(float), rng.randint(0, 2, 30)),
        "constant-column": (np.column_stack([np.ones(24), base[:, 0], np.zeros(24)]), labels),
        "all-constant": (np.ones((8, 2)), np.array([0, 1] * 4)),
        "percentile-path": (wide, (wide[:, 0] - wide[:, 1] > 0.2).astype(int)),
        "nan-columns": (with_nans, labels),
        "nan-33-distinct": (boundary, boundary_labels),
        "nan-32-distinct": (under, under_labels),
        "nine-classes": (many, rng.randint(0, 9, 45)),
        "string-labels": (base, np.where(labels == 1, "yes", "no")),
    }


SESSIONS = _session_fixtures()
FIXTURES = {**SESSIONS, **_edge_fixtures(), **_estimator_fixtures()}


def grid(space, **overrides):
    """Every combination of ``space``'s candidate values, as keyword dicts."""
    space = {**space, **{name: [value] for name, value in overrides.items()}}
    return [dict(zip(space, values)) for values in itertools.product(*space.values())]


def ensemble_trials(name, space):
    """The search space at its smallest ensemble, plus one ensemble of the largest size.

    Tree i (stage s) is the same in every ensemble of more than i trees
    (s stages), so the other sizes would grow the same trees again.  The
    10-row session tables — what the e2e ``automate`` searches fit — take the
    whole grid; the rest take its corners.
    """
    sizes = space["n_estimators"]
    if name not in SESSIONS:
        space = {key: sorted({values[0], values[-1]}) for key, values in space.items()}
    return grid(space, n_estimators=sizes[0]) + [{"n_estimators": sizes[-1]}]


# -------------------------------------------------------------------- parity
@pytest.mark.parametrize("name", FIXTURES)
def test_decision_tree_matches_oracle(name):
    X, y = FIXTURES[name]
    extremes = [{"max_depth": 1}, {"min_samples_split": len(y) + 1}, {"max_features": 1, "random_state": 3}]
    for params in grid(HYPERPARAMETER_SPACES["sklearn.tree.DecisionTreeClassifier"]) + extremes:
        where = f"{name} {params}"
        assert_parity(DecisionTreeClassifier(**params), oracle.DecisionTreeClassifier(**params), X, y, where)


@pytest.mark.parametrize("name", FIXTURES)
def test_regression_tree_matches_oracle(name):
    X, y = FIXTURES[name]
    target = np.unique(y, return_inverse=True)[1] + np.nan_to_num(np.asarray(X, dtype=float)[:, -1]) / 3.0
    for params in [{}, {"max_depth": 1}, {"max_depth": 3}, {"min_samples_split": 5}, {"max_features": 1}]:
        where = f"{name} {params}"
        assert_parity(DecisionTreeRegressor(**params), oracle.DecisionTreeRegressor(**params), X, target, where)


@pytest.mark.parametrize("name", FIXTURES)
def test_random_forest_matches_oracle(name):
    """``max_features="sqrt"``: every split draws from the tree's generator, in preorder."""
    X, y = FIXTURES[name]
    trials = ensemble_trials(name, HYPERPARAMETER_SPACES["sklearn.ensemble.RandomForestClassifier"])
    trials.append({"n_estimators": 3, "max_features": "log2", "random_state": 11})
    trials.append({"n_estimators": 3, "max_features": None, "max_depth": 1})
    for params in trials:
        where = f"{name} {params}"
        assert_parity(RandomForestClassifier(**params), oracle.RandomForestClassifier(**params), X, y, where)


@pytest.mark.parametrize("name", FIXTURES)
def test_gradient_boosting_matches_oracle(name):
    """Binary and multi-class; stage s is the same in every model of more than s stages."""
    X, y = FIXTURES[name]
    space = HYPERPARAMETER_SPACES["xgboost.XGBClassifier"]
    assert all(set(values) <= set(space[key]) for key, values in
               HYPERPARAMETER_SPACES["sklearn.ensemble.GradientBoostingClassifier"].items())
    for params in ensemble_trials(name, space):
        where = f"{name} {params}"
        assert_parity(GradientBoostingClassifier(**params), oracle.GradientBoostingClassifier(**params), X, y, where)


def test_predictions_match_on_unseen_rows():
    """Descent on rows the tree never saw, NaNs included (they go right)."""
    X, y = FIXTURES["blobs-3class"]
    rng = np.random.RandomState(5)
    unseen = rng.normal(3, 3, size=(50, 2))
    unseen[rng.rand(50) < 0.2, 0] = np.nan
    pairs = [
        (DecisionTreeClassifier(max_depth=6), oracle.DecisionTreeClassifier(max_depth=6)),
        (RandomForestClassifier(n_estimators=7), oracle.RandomForestClassifier(n_estimators=7)),
        (GradientBoostingClassifier(n_estimators=6), oracle.GradientBoostingClassifier(n_estimators=6)),
    ]
    for ours, theirs in pairs:
        ours.fit(X, y), theirs.fit(X, y)
        assert np.array_equal(ours.predict_proba(unseen), theirs.predict_proba(unseen)), type(ours).__name__
        assert np.array_equal(ours.predict(unseen), theirs.predict(unseen)), type(ours).__name__


def test_forests_fitted_on_four_threads_equal_serial_fits_and_the_oracle():
    """Each fit owns its trees' generator: concurrent fits cannot draw from one another's."""
    X, y = FIXTURES["blobs-binary"]
    seeds = range(8)

    def fit(seed):
        return RandomForestClassifier(n_estimators=10, random_state=seed).fit(X, y)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave the trees
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(fit, seeds))
    finally:
        sys.setswitchinterval(interval)
    for seed, forest in zip(seeds, concurrent):
        serial = fit(seed)
        reference = oracle.RandomForestClassifier(n_estimators=10, random_state=seed).fit(X, y)
        assert len(forest._trees) == len(serial._trees) == len(reference._trees)
        for index, (tree, again, fitted) in enumerate(zip(forest._trees, serial._trees, reference._trees)):
            where = f"random_state={seed} tree {index}"
            assert all(np.array_equal(mine, theirs) for mine, theirs in zip(tree, again)), f"{where}: differs from the serial fit"
            assert_same_tree(tree, fitted._root, where, np.isin(forest.classes_, fitted.classes_))


def test_boosting_fitted_on_four_threads_equals_serial_fits_and_the_oracle():
    """Each fit owns its split cache: concurrent fits on other data cannot read one another's row sets."""
    names = [*SESSIONS, "blobs-3class", "nan-columns"]
    params = {"n_estimators": 10, "max_depth": 4}

    def fit(name):
        return GradientBoostingClassifier(**params).fit(*FIXTURES[name])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave the stages
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(fit, names))
    finally:
        sys.setswitchinterval(interval)
    for name, model in zip(names, concurrent):
        serial = fit(name)
        for j, (grown, again) in enumerate(zip(model._stages, serial._stages)):
            for stage, (ours, theirs) in enumerate(zip(grown, again)):
                where = f"{name} class {j} stage {stage}"
                assert all(np.array_equal(mine, other) for mine, other in zip(ours, theirs)), f"{where}: differs from the serial fit"
        X, y = FIXTURES[name]
        reference = oracle.GradientBoostingClassifier(**params).fit(X, y)
        assert_parity(model, reference, X, y, name)


def _spy_on_split_caches(monkeypatch):
    """Per stage of the next boosting fit: ``[current dict, split nodes grown]`` and, after each tree,
    ``(row sets held, split nodes of this stage so far + the last stage's)``."""
    stages, held = [], []
    grow = ml_ensemble._grow

    def spy(*args, cache, **kwargs):
        fitted, leaf_of = grow(*args, cache=cache, **kwargs)
        current, previous = cache
        if not stages or stages[-1][0] is not current:
            assert not stages or previous is stages[-1][0], "an older stage's row sets were kept"
            stages.append([current, 0])
        stages[-1][1] += int((fitted.feature >= 0).sum())
        held.append((len(current) + len(previous), stages[-1][1] + (stages[-2][1] if len(stages) > 1 else 0)))
        return fitted, leaf_of

    monkeypatch.setattr(ml_ensemble, "_grow", spy)
    return stages, held


def test_boosting_split_cache_holds_at_most_two_stages_of_row_sets(monkeypatch):
    """Fig 9 scale: the cache is bounded by two stages' split nodes, not by ``n_estimators``."""
    rng = np.random.RandomState(0)
    X, y = rng.normal(size=(240, 12)), rng.randint(0, 3, 240)
    stages, held = _spy_on_split_caches(monkeypatch)
    GradientBoostingClassifier(n_estimators=40, max_depth=6).fit(X, y)
    assert len(stages) == 40 and len(held) == 120
    for index, (row_sets, bound) in enumerate(held):
        assert row_sets <= bound, f"tree {index}: {row_sets} row sets held, two stages split {bound} nodes"


def test_boosting_computes_each_row_set_once_on_an_automate_table(monkeypatch):
    """A 10-row, 3-class session table: 240 split nodes over 40 stages, at most 4 distinct row sets."""
    computed = []
    layout = ml_tree._variance_layout
    monkeypatch.setattr(ml_tree, "_variance_layout", lambda goes_left: computed.append(1) or layout(goes_left))
    stages, _ = _spy_on_split_caches(monkeypatch)
    X, y = SESSIONS["cleaning_1-fold0"]
    model = GradientBoostingClassifier(n_estimators=40, max_depth=6).fit(X, y)
    assert sum(split_nodes for _, split_nodes in stages) == 240
    assert len(computed) <= 4
    reference = oracle.GradientBoostingClassifier(n_estimators=40, max_depth=6).fit(X, y)
    assert np.array_equal(model.predict_proba(X), reference.predict_proba(X))


def test_forest_with_a_class_missing_from_a_bootstrap():
    """The trees share the forest's label encoding; an absent class is a zero column."""
    rng = np.random.RandomState(4)
    X = rng.normal(size=(12, 3))
    y = np.array(["common"] * 10 + ["rare", "rarer"])
    ours, theirs = assert_parity(
        RandomForestClassifier(n_estimators=25, max_depth=4),
        oracle.RandomForestClassifier(n_estimators=25, max_depth=4),
        X,
        y,
        "imbalanced",
    )
    seen = [len(tree.classes_) for tree in theirs._trees]
    assert min(seen) < 3 <= max(seen), "the fixture must hold bootstraps with and without a missing class"
    probabilities = ours.predict_proba(X)
    assert ours.classes_.tolist() == ["common", "rare", "rarer"]
    assert probabilities.shape == (12, 3)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.array_equal(probabilities, theirs.predict_proba(X))
    assert np.array_equal(ours.predict(X), theirs.predict(X))


# ------------------------------------------------------------------ property
_VALUES = st.sampled_from([0.0, 1.0, 1.0, 2.5, -1.0, 0.1, 0.7, -0.3, float("nan")])


@st.composite
def _small_problems(draw):
    rows = draw(st.integers(min_value=2, max_value=14))
    columns = draw(st.integers(min_value=1, max_value=4))
    X = np.array(draw(st.lists(st.lists(_VALUES, min_size=columns, max_size=columns), min_size=rows, max_size=rows)))
    labels = np.array(draw(st.lists(st.integers(min_value=0, max_value=2), min_size=rows, max_size=rows)))
    targets = np.array(draw(st.lists(st.sampled_from([0.7, -0.3, 0.1, 0.1, 1.0]), min_size=rows, max_size=rows)))
    return X, labels, targets, draw(st.sampled_from([None, 1, 2])), draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=60, deadline=None)
@given(_small_problems())
def test_array_tree_equals_oracle_on_random_problems(problem):
    """Duplicated values, NaNs and tied targets: the array tree (and boosting's trees) are the oracle's."""
    X, labels, targets, max_features, max_depth = problem
    params = {"max_depth": max_depth, "max_features": max_features, "random_state": 1}
    assert_parity(DecisionTreeClassifier(**params), oracle.DecisionTreeClassifier(**params), X, labels, "classifier")
    assert_parity(DecisionTreeRegressor(**params), oracle.DecisionTreeRegressor(**params), X, targets, "regressor")
    # Ten stages: the later ones split row sets an earlier stage already cached.
    boosting = {"n_estimators": 10, "max_depth": max_depth}
    assert_parity(GradientBoostingClassifier(**boosting), oracle.GradientBoostingClassifier(**boosting), X, labels, "boosting")


# ------------------------------------------------------------- no silent 0.0
def test_no_fit_fails_on_the_parity_fixtures():
    """A raise inside a fit scores 0.0; it must not do so unseen."""
    estimators = [
        DecisionTreeClassifier(),
        RandomForestClassifier(n_estimators=5),
        GradientBoostingClassifier(n_estimators=5),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitFailedWarning)
        warnings.simplefilter("ignore", DegenerateFoldWarning)
        for name, (X, y) in FIXTURES.items():
            for estimator in estimators:
                scores = cross_val_score(estimator, X, y, cv=2)
                assert scores.shape == (2,), name


def test_no_fit_fails_in_an_evolution_search():
    """One ``test_automl_evolution.py`` search, with a failed fit an error."""
    table, target = generate_classification_dataset("evo_fit", n_rows=100, n_features=4, seed=9)
    X, _ = table.to_feature_matrix(target=target)
    evaluator = FitnessEvaluator(X, table.target_vector(target), cv=2, random_state=13, cache=FitnessCache())
    config = EvolutionConfig(population_size=5, generations=3, max_evaluations=6.0, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitFailedWarning)
        result = EvolutionarySearch(evaluator, PriorBook.uniform(), config).run()
    assert result.best_score > 0.0
