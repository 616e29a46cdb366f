"""Shared helpers for the benchmark harness."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.datagen.data_lake import DiscoveryBenchmark
from repro.ml import RandomForestClassifier
from repro.ml.model_selection import cross_val_accuracy, cross_val_f1
from repro.tabular import Table

TableKey = Tuple[str, str]


def client_rankings(client, benchmark: DiscoveryBenchmark, k: int = 10) -> Dict[TableKey, List[TableKey]]:
    """Each query table's ``get_unionable_tables`` answer as ``(dataset, table)`` keys."""
    rankings = {}
    for query in benchmark.query_tables:
        result = client.get_unionable_tables(*query, k=k)
        rankings[query] = list(zip(result["dataset"].values, result["table"].values))
    return rankings


def baseline_rankings(system, benchmark: DiscoveryBenchmark, k: int = 10) -> Dict[TableKey, List[TableKey]]:
    """Ranked union candidates from a baseline system (already preprocessed)."""
    rankings = {}
    for query in benchmark.query_tables:
        ranked = system.query(benchmark.lake.table(*query), k=k)
        rankings[query] = [key for key, _ in ranked]
    return rankings


def downstream_f1(table: Table, target: str, seed: int = 0) -> float:
    """Cross-validated F1 of a random forest on the (cleaned) table — Table 5's metric."""
    X, _ = table.to_feature_matrix(target=target)
    y = table.target_vector(target)
    if len(y) < 6:
        return 0.0
    model = RandomForestClassifier(n_estimators=8, max_depth=8, random_state=seed)
    return cross_val_f1(model, X, y, cv=3, random_state=seed)


def downstream_accuracy(table: Table, target: str, seed: int = 0) -> float:
    """Cross-validated accuracy of a random forest — Table 6's metric."""
    X, _ = table.to_feature_matrix(target=target)
    y = table.target_vector(target)
    if len(y) < 6:
        return 0.0
    model = RandomForestClassifier(n_estimators=8, max_depth=8, random_state=seed)
    return cross_val_accuracy(model, X, y, cv=3, random_state=seed)
