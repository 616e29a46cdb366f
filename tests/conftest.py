"""Shared fixtures: small synthetic workloads and a bootstrapped platform.

Expensive artifacts (the bootstrapped KGLiDS platform, profiled benchmark
lakes) are session-scoped so the integration tests stay fast.
"""

from __future__ import annotations

import pytest

from repro.datagen import generate_discovery_benchmark, generate_pipeline_corpus
from repro.interfaces import KGLiDS
from repro.rdf import FaultInjectingBackend, QuadStore, QuadStoreBackend, SqliteBackend
from repro.tabular import DataLake, Table


@pytest.fixture(scope="session")
def open_store():
    """``open_store(configuration, path)``: a store on one backend configuration.

    ``"memory"`` or ``"sqlite"`` (a file at ``path``), bare or with a
    ``"faulted-"`` prefix: behind an unarmed :class:`FaultInjectingBackend`,
    which must answer exactly what the backend it wraps answers.
    """

    def open_configuration(configuration: str, path) -> QuadStore:
        inner = SqliteBackend(path) if configuration.endswith("sqlite") else QuadStoreBackend()
        faulted = configuration.startswith("faulted-")
        return QuadStore(backend=FaultInjectingBackend(inner) if faulted else inner)

    return open_configuration


@pytest.fixture()
def titanic_table() -> Table:
    """A small titanic-like table with mixed types and missing values."""
    return Table.from_dict(
        "train",
        {
            "Age": [22, 38, None, 35, 54, 2, 27, None, 14, 58],
            "Fare": [7.25, 71.28, 7.92, 53.1, 51.86, 21.07, 11.13, 30.07, 16.7, 26.55],
            "Sex": ["male", "female", "female", "male", "male", "female", "male", "female", "female", "male"],
            "Name": [
                "James Smith", "Mary Johnson", "Linda Brown", "Robert Jones", "David Garcia",
                "Susan Miller", "John Davis", "Barbara Wilson", "Karen Taylor", "Richard Moore",
            ],
            "Survived": [0, 1, 1, 1, 0, 1, 0, 1, 1, 0],
            "Embarked_date": [
                "1912-04-10", "1912-04-10", "1912-04-11", "1912-04-10", "1912-04-11",
                "1912-04-10", "1912-04-11", "1912-04-10", "1912-04-11", "1912-04-10",
            ],
            "Cabin": ["C85", "B28", "E46", "C123", "A6", "D33", "B42", "C148", "E12", "A7"],
        },
        dataset="titanic",
    )


@pytest.fixture()
def small_lake(titanic_table) -> DataLake:
    """A two-dataset lake: titanic plus a heart-disease-style dataset."""
    lake = DataLake("unit_test_lake")
    lake.add_table("titanic", titanic_table)
    heart = Table.from_dict(
        "heart",
        {
            "age": [63, 37, 41, 56, 57, 45, 68, 51],
            "sex": ["male", "female", "female", "male", "male", "female", "male", "male"],
            "chol": [233.0, 250.0, 204.0, 236.0, 354.0, 199.0, 274.0, 212.0],
            "target": [1, 1, 1, 1, 0, 0, 1, 0],
        },
        dataset="heart-uci",
    )
    lake.add_table("heart-uci", heart)
    return lake


@pytest.fixture(scope="session")
def tiny_benchmark():
    """A tiny discovery benchmark with ground truth (3 base tables x 3 partitions)."""
    return generate_discovery_benchmark("tus_small", seed=11, base_tables=3, partitions=3, rows=50)


@pytest.fixture(scope="session")
def bootstrapped_platform(tiny_benchmark) -> KGLiDS:
    """A KGLiDS platform bootstrapped over the tiny benchmark + pipeline corpus."""
    scripts = generate_pipeline_corpus(tiny_benchmark.lake, pipelines_per_table=2, seed=3)
    return KGLiDS.bootstrap(lake=tiny_benchmark.lake, scripts=scripts, train_models=True)


EXAMPLE_PIPELINE_SOURCE = """
import pandas as pd
import numpy as np
from sklearn.impute import SimpleImputer
from sklearn.preprocessing import StandardScaler
from sklearn.model_selection import train_test_split
from sklearn.ensemble import RandomForestClassifier
from sklearn.metrics import accuracy_score

df = pd.read_csv('titanic/train.csv')
X, y = df.drop('Survived', axis=1), df['Survived']
imputer = SimpleImputer(strategy='most_frequent')
X['Sex'] = imputer.fit_transform(X['Sex'])
scaler = StandardScaler()
X['NormalizedAge'] = scaler.fit_transform(X['Age'])
X_train, X_test, y_train, y_test = train_test_split(X, y, 0.2)
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X_train, y_train)
print(accuracy_score(y_test, clf.predict(X_test)))
"""


@pytest.fixture()
def example_pipeline_source() -> str:
    """The running-example pipeline of Figure 3."""
    return EXAMPLE_PIPELINE_SOURCE
