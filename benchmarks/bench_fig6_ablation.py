"""Figure 6 — Ablation of the KGLiDS discovery configuration (TUS-style lake).

Four configurations are compared, as in the paper:

* **KGLiDS** — label similarity + fine-grained CoLR content similarity;
* **Fine-Grained (No Subsampling)** — content similarity only, embedding the
  full columns instead of the 10% sample;
* **Fine-Grained** — content similarity only, with subsampling;
* **Coarse-Grained** — content similarity only with the three coarse-grained
  embedding models (numeric / string / other).

Expected shape: the full configuration is the most accurate; fine-grained
content-only remains competitive; coarse-grained is clearly worse; and
subsampling does not change accuracy materially while reducing profiling time.
"""

import time

import numpy as np

from _helpers import client_rankings
from repro.embeddings import CoarseGrainedModelSet
from repro.eval import average_precision_recall_at_k, format_report_table
from repro.interfaces import LiDSClient
from repro.kg import DataGlobalSchemaBuilder, KGGovernor
from repro.profiler import DataProfiler

K_VALUES = [1, 2, 3, 5]


def _evaluate(workload, use_label, **governor_kwargs):
    """Govern the lake in one configuration; its P@k / R@k and govern seconds."""
    governor = KGGovernor(
        schema_builder=DataGlobalSchemaBuilder(use_label_similarity=use_label), **governor_kwargs
    )
    started = time.perf_counter()
    governor.add_data_lake(workload.lake)
    govern_seconds = time.perf_counter() - started
    rankings = client_rankings(LiDSClient(governor), workload)
    ground_truth = {q: workload.ground_truth[q] for q in workload.query_tables}
    return average_precision_recall_at_k(rankings, ground_truth, K_VALUES), govern_seconds


def test_fig6_ablation(discovery_workloads, benchmark):
    workload = discovery_workloads["tus_small"]
    configurations = {}

    configurations["KGLiDS (CoLR + label)"], _ = _evaluate(workload, use_label=True)
    configurations["Fine-Grained"], _ = _evaluate(workload, use_label=False)
    configurations["Fine-Grained (No Subsampling)"], no_subsample_time = _evaluate(
        workload,
        use_label=False,
        profiler=DataProfiler(sample_fraction=1.0, min_sample_size=10**6),
    )
    _, subsample_time = _evaluate(
        workload, use_label=False, profiler=DataProfiler(sample_fraction=0.1, min_sample_size=20)
    )
    configurations["Coarse-Grained"], _ = _evaluate(
        workload, use_label=False, colr_models=CoarseGrainedModelSet()
    )

    rows = []
    mean_precision = {}
    for name, metrics in configurations.items():
        for k, (precision, recall) in metrics.items():
            rows.append([name, k, round(precision, 3), round(recall, 3)])
        mean_precision[name] = np.mean([p for p, _ in metrics.values()])
    rows.append(["govern time: 10% subsample (s)", "-", round(subsample_time, 2), "-"])
    rows.append(["govern time: full columns (s)", "-", round(no_subsample_time, 2), "-"])
    print()
    print(
        format_report_table(
            ["configuration", "k", "precision@k", "recall@k"],
            rows,
            title="Figure 6: ablation on the TUS-style benchmark",
        )
    )

    # Shape assertions mirroring the paper's findings.
    assert mean_precision["KGLiDS (CoLR + label)"] >= mean_precision["Fine-Grained"] - 1e-9
    assert mean_precision["Fine-Grained"] >= mean_precision["Coarse-Grained"] - 0.05
    no_subsampling_gap = abs(
        mean_precision["Fine-Grained"] - mean_precision["Fine-Grained (No Subsampling)"]
    )
    assert no_subsampling_gap <= 0.25

    benchmark.pedantic(lambda: _evaluate(workload, use_label=True), rounds=1, iterations=1)
