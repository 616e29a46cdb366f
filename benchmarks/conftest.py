"""Shared benchmark workloads.

Each paper experiment runs over a laptop-scale rendition of its workload:
the four discovery benchmarks, the Kaggle-style pipeline corpus, and the
cleaning / transformation / AutoML dataset collections.  Everything is
session-scoped so the individual benches stay fast.
"""

from __future__ import annotations

import pytest

from repro.datagen import (
    generate_automl_datasets,
    generate_cleaning_datasets,
    generate_discovery_benchmark,
    generate_pipeline_corpus,
    generate_transformation_datasets,
)
from repro.interfaces import KGLiDS
from repro.profiler import DataProfiler

#: Scaled-down renditions of the paper's four discovery benchmarks.
DISCOVERY_STYLES = {
    "d3l_small": dict(base_tables=4, partitions=4, rows=100, seed=1),
    "tus_small": dict(base_tables=5, partitions=4, rows=80, seed=2),
    "santos_small": dict(base_tables=3, partitions=3, rows=70, seed=3),
    "santos_large": dict(base_tables=7, partitions=5, rows=90, seed=4),
}


@pytest.fixture(scope="session")
def discovery_workloads():
    """style -> DiscoveryBenchmark for all four benchmark styles."""
    return {
        style: generate_discovery_benchmark(style, **config)
        for style, config in DISCOVERY_STYLES.items()
    }


@pytest.fixture(scope="session")
def profiled_workloads(discovery_workloads):
    """style -> list[TableProfile] using the default profiler."""
    profiler = DataProfiler()
    return {
        style: profiler.profile_data_lake(benchmark.lake)
        for style, benchmark in discovery_workloads.items()
    }


@pytest.fixture(scope="session")
def pipeline_corpus(discovery_workloads):
    """The Kaggle-style pipeline corpus over the TUS-style lake."""
    return generate_pipeline_corpus(
        discovery_workloads["tus_small"].lake, pipelines_per_table=3, seed=5
    )


@pytest.fixture(scope="session")
def bootstrapped_platform(discovery_workloads, pipeline_corpus):
    """A KGLiDS platform bootstrapped over the TUS-style lake + corpus."""
    return KGLiDS.bootstrap(
        lake=discovery_workloads["tus_small"].lake, scripts=pipeline_corpus, train_models=True
    )


@pytest.fixture(scope="session")
def cleaning_datasets():
    """The Table 5 workload: 10 datasets with nulls, the last 3 much larger."""
    return generate_cleaning_datasets(count=10, base_rows=80)


@pytest.fixture(scope="session")
def transformation_datasets():
    """The Table 6 workload: 10 datasets with skewed / badly-scaled features."""
    return generate_transformation_datasets(count=10, base_rows=80)


@pytest.fixture(scope="session")
def automl_datasets():
    """The Figure 9 workload: a binary/multiclass mix."""
    return generate_automl_datasets(count=8, base_rows=110)
