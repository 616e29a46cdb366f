"""Extra ablation — the α / θ similarity thresholds of Algorithm 3.

Section 3.3 describes the trade-off qualitatively: higher thresholds yield
fewer but more precise similarity edges (high precision, low recall) and
lower thresholds the reverse.  This bench sweeps the label (α) and content
(θ) thresholds on the TUS-style benchmark and reports edge counts,
precision@k and recall@k so the trade-off is visible as data.
"""

from _helpers import client_rankings
from repro.eval import average_precision_recall_at_k, format_report_table
from repro.interfaces import LiDSClient
from repro.kg import DataGlobalSchemaBuilder, KGGovernor, SimilarityThresholds

SWEEP = [
    ("strict", SimilarityThresholds(alpha=0.95, beta=0.98, theta=0.999)),
    ("default", SimilarityThresholds()),
    ("loose", SimilarityThresholds(alpha=0.60, beta=0.80, theta=0.93)),
]
K_VALUES = [1, 3, 5]


def _govern(workload, thresholds):
    governor = KGGovernor(schema_builder=DataGlobalSchemaBuilder(thresholds=thresholds))
    return governor, governor.add_data_lake(workload.lake)


def test_threshold_ablation(discovery_workloads, benchmark):
    workload = discovery_workloads["tus_small"]
    ground_truth = {q: workload.ground_truth[q] for q in workload.query_tables}
    rows = []
    edge_counts = {}
    for name, thresholds in SWEEP:
        governor, report = _govern(workload, thresholds)
        metrics = average_precision_recall_at_k(
            client_rankings(LiDSClient(governor), workload), ground_truth, K_VALUES
        )
        edge_counts[name] = report.num_similarity_edges
        for k, (precision, recall) in metrics.items():
            rows.append(
                [name, thresholds.alpha, thresholds.theta, edge_counts[name], k, round(precision, 3), round(recall, 3)]
            )
    print()
    print(
        format_report_table(
            ["setting", "alpha", "theta", "similarity edges", "k", "precision@k", "recall@k"],
            rows,
            title="Ablation: similarity thresholds of Algorithm 3",
        )
    )

    # Shape: stricter thresholds materialize fewer edges; looser thresholds
    # never reduce the number of edges.
    assert edge_counts["strict"] <= edge_counts["default"] <= edge_counts["loose"]

    benchmark.pedantic(lambda: _govern(workload, SWEEP[1][1]), rounds=1, iterations=1)
