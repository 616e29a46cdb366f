"""The revised KGpip AutoML pipeline.

Given an unseen dataset (a :class:`~repro.tabular.Table` plus a target
column), the pipeline:

1. embeds the dataset and finds the most similar table in the LiDS graph;
2. queries the graph for the estimators used by the top-voted pipelines that
   read that table (classifier recommendation);
3. queries the graph for the hyperparameter values those pipelines passed to
   the recommended estimator (hyperparameter recommendation);
4. spends a budget searching pipeline space — by default with the
   :mod:`~repro.automl.evolution` subsystem (``strategy="evolution"``): a
   GOLEM-style evolutionary loop over DAG-shaped pipeline genomes whose
   initial population and variation operators are biased by the LiDS priors
   when ``use_lids_priors`` is enabled (``Pip_LiDS``) and uninformed
   otherwise (``Pip_G4C``, the GraphGen4Code baseline).  The original
   budgeted random search survives as ``strategy="random"``, now deduped by
   configuration hash and writing through the same fitness cache, so the
   two strategies are comparable at an equal evaluation budget.

The F1 difference between the two prior configurations under the same budget
is what Figure 9 reports.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.automl.evolution.evolve import EvolutionConfig, EvolutionarySearch
from repro.automl.evolution.fitness import FitnessCache, FitnessEvaluator
from repro.automl.evolution.genome import OPERATION_REGISTRY, PipelineGenome
from repro.automl.evolution.priors import PriorBook
from repro.automl.search_space import (
    ESTIMATOR_REGISTRY,
    default_estimator_names,
    sample_configuration,
)
from repro.embeddings.colr import ColRModelSet
from repro.kg.ontology import LiDSOntology, library_uri
from repro.kg.storage import KGLiDSStorage
from repro.parallel import JobExecutor
from repro.profiler.profile import DataProfiler
from repro.tabular import Table

#: Search strategies :meth:`KGpipAutoML.search` accepts.
SEARCH_STRATEGIES = ("evolution", "random")


@dataclass
class EstimatorRecommendation:
    """One recommended estimator with its supporting evidence."""

    estimator_name: str
    votes: int
    similarity: float
    hyperparameter_priors: Dict[str, Any] = field(default_factory=dict)


@dataclass
class AutoMLResult:
    """Outcome of one AutoML search (either strategy).

    ``evaluations`` counts actual pipeline fits (screens and fulls alike);
    ``evaluations_spent`` is the budget consumed in full-evaluation cost
    units, which is the number the two strategies are compared on.
    """

    best_estimator_name: str
    best_configuration: Dict[str, Any]
    best_score: float
    evaluations: int
    elapsed_seconds: float
    trace: List[Tuple[str, Dict[str, Any], float]] = field(default_factory=list)
    strategy: str = "random"
    #: Canonical descriptive id of the winning genome (evolution strategy).
    best_genome: Optional[str] = None
    evaluations_spent: float = 0.0
    #: Random strategy: samples skipped because their configuration hash was
    #: already attempted (they cost no budget).
    duplicate_samples: int = 0
    generations_run: int = 0
    stopped_because: str = ""
    cache_stats: Dict[str, int] = field(default_factory=dict)
    fidelity_stats: Dict[str, int] = field(default_factory=dict)
    operator_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


class KGpipAutoML:
    """Classifier + hyperparameter recommendation and budgeted search."""

    def __init__(
        self,
        storage: KGLiDSStorage,
        profiler: Optional[DataProfiler] = None,
        colr_models: Optional[ColRModelSet] = None,
        use_lids_priors: bool = True,
        random_state: int = 0,
        executor: Optional[JobExecutor] = None,
    ):
        self.storage = storage
        self.colr_models = colr_models or ColRModelSet.pretrained()
        self.profiler = profiler or DataProfiler(colr_models=self.colr_models)
        self.use_lids_priors = use_lids_priors
        self.random_state = random_state
        self.executor = executor or JobExecutor()
        #: ``(store, store.version, book)`` of the last kept corpus harvest.
        self._corpus: Optional[Tuple[Any, int, PriorBook]] = None

    # --------------------------------------------------------- recommendation
    def most_similar_table(self, table: Table) -> Optional[Tuple[str, float]]:
        """URI and similarity of the LiDS table most similar to ``table``."""
        profile = self.profiler.profile_table(table)
        if profile.embedding is None:
            return None
        matches = self.storage.embeddings.search("table", profile.embedding, k=1)
        if not matches:
            return None
        return matches[0]

    def recommend_ml_models(
        self, table: Table, task: str = "classification", k: int = 5
    ) -> List[EstimatorRecommendation]:
        """Estimators used by top-voted pipelines of the most similar dataset."""
        match = self.most_similar_table(table)
        if match is None:
            return [
                EstimatorRecommendation(name, votes=0, similarity=0.0)
                for name in default_estimator_names()[:k]
            ]
        table_uri_str, similarity = match
        usage = self._estimator_usage_for_table(table_uri_str, task)
        if not usage:
            return [
                EstimatorRecommendation(name, votes=0, similarity=similarity)
                for name in default_estimator_names()[:k]
            ]
        recommendations = []
        for estimator_name, votes in sorted(usage.items(), key=lambda item: -item[1])[:k]:
            priors = (
                self.recommend_hyperparameters(estimator_name, table_uri_str)
                if self.use_lids_priors
                else {}
            )
            recommendations.append(
                EstimatorRecommendation(
                    estimator_name=estimator_name,
                    votes=votes,
                    similarity=similarity,
                    hyperparameter_priors=priors,
                )
            )
        return recommendations

    def _estimator_usage_for_table(self, table_uri_str: str, task: str) -> Dict[str, int]:
        """``{estimator name: accumulated votes}`` over pipelines reading the table."""
        ontology = LiDSOntology
        store = self.storage.graph
        usage: Dict[str, int] = {}
        for estimator_name in ESTIMATOR_REGISTRY:
            call_node = library_uri(estimator_name)
            for triple, graph in store.match(None, ontology.callsFunction, call_node):
                statement_node = triple.subject
                for pipeline_node in store.objects(statement_node, ontology.isPartOf, graph=graph):
                    reads = {str(node) for node in store.objects(pipeline_node, ontology.reads, graph=graph)}
                    if table_uri_str not in reads:
                        continue
                    votes = store.value(pipeline_node, ontology.hasVotes, graph=graph, default=0)
                    usage[estimator_name] = usage.get(estimator_name, 0) + int(votes or 0) + 1
        return usage

    def recommend_hyperparameters(
        self, estimator_name: str, table_uri_str: Optional[str] = None
    ) -> Dict[str, Any]:
        """Most common hyperparameter values recorded for the estimator.

        When ``table_uri_str`` is given, only pipelines reading that table are
        considered; otherwise all pipelines calling the estimator contribute.
        """
        ontology = LiDSOntology
        store = self.storage.graph
        call_node = library_uri(estimator_name)
        value_counts: Dict[str, Dict[str, int]] = {}
        for triple, graph in store.match(None, ontology.callsFunction, call_node):
            statement_node = triple.subject
            if table_uri_str is not None:
                pipelines = store.objects(statement_node, ontology.isPartOf, graph=graph)
                if not any(
                    table_uri_str in {str(n) for n in store.objects(p, ontology.reads, graph=graph)}
                    for p in pipelines
                ):
                    continue
            for parameter_node in store.objects(statement_node, ontology.hasParameter, graph=graph):
                name = store.value(parameter_node, ontology.hasName, graph=graph)
                value = store.value(parameter_node, ontology.hasParameterValue, graph=graph)
                if name is None or value is None:
                    continue
                bucket = value_counts.setdefault(str(name), {})
                bucket[str(value)] = bucket.get(str(value), 0) + 1
        priors: Dict[str, Any] = {}
        for name, counts in value_counts.items():
            best_value = max(counts.items(), key=lambda item: item[1])[0]
            priors[name] = self._parse_recorded_value(best_value)
        return priors

    @staticmethod
    def _parse_recorded_value(recorded: str) -> Any:
        try:
            return ast.literal_eval(recorded)
        except (ValueError, SyntaxError):
            return recorded

    # ------------------------------------------------------------------ priors
    def prior_book(self, table: Optional[Table] = None) -> PriorBook:
        """The :class:`PriorBook` driving the evolutionary strategy.

        Corpus-wide operation/value weights are harvested by SPARQL from the
        storage, once per store version (:meth:`_corpus_book`); each call
        gets its own copy.  When a ``table`` is given, the table-similarity
        estimator recommendation (votes of pipelines reading the most similar
        dataset) is folded into that copy, so the book carries both the
        global and the dataset-local signal.  With ``use_lids_priors`` off
        this is the uniform book — the ``Pip_G4C`` baseline.
        """
        if not self.use_lids_priors:
            return PriorBook.uniform()
        book = self._corpus_book().copy()
        if table is None:
            return book
        for recommendation in self.recommend_ml_models(table):
            weights = book.operation_weights["estimator"]
            weights[recommendation.estimator_name] = (
                weights.get(recommendation.estimator_name, 1.0)
                + recommendation.votes
                + 1.0
            )
            spec = OPERATION_REGISTRY.get(recommendation.estimator_name)
            if spec is None:
                continue
            for name, value in recommendation.hyperparameter_priors.items():
                if name not in spec.params:
                    continue
                bucket = book.value_weights.setdefault(
                    (recommendation.estimator_name, name), {}
                )
                try:
                    bucket[value] = bucket.get(value, 0.0) + 2.0
                except TypeError:
                    continue
        return book

    def _corpus_book(self) -> PriorBook:
        """The corpus-wide :class:`PriorBook`, harvested at most once per store version.

        :attr:`QuadStore.version` moves on every write, a rollback restores
        it together with the state, and ``reopen`` bumps it, so a book kept
        under a version holds exactly that version's pipelines.  The version
        is read under the harvest's own read view, so no commit lands between
        the two.  Only an informed book is kept: an uninformed one may be
        what a failed harvest fell back to.  Nor is a harvest made inside
        this thread's own open write batch, which may yet roll back.
        """
        store = self.storage.graph
        with store.read_view():
            version = store.version
            kept = self._corpus
            if kept is not None and kept[0] is store and kept[1] == version:
                return kept[2]
            book = PriorBook.from_client(self.storage)
            if book.informed and not store.in_write_batch:
                self._corpus = (store, version, book)
        return book

    # ----------------------------------------------------------------- search
    def search(
        self,
        table: Table,
        target: str,
        time_budget_seconds: Optional[float] = 5.0,
        max_evaluations: int = 12,
        cv: int = 3,
        strategy: str = "evolution",
        population_size: int = 8,
        generations: int = 16,
        cache: Optional[FitnessCache] = None,
    ) -> AutoMLResult:
        """Budgeted pipeline search on an unseen dataset.

        ``max_evaluations`` is the budget in full-evaluation cost units for
        *both* strategies (the evolutionary loop charges screens at their
        subsample fraction), so ``strategy="evolution"`` and
        ``strategy="random"`` results are directly comparable.  Pass a shared
        ``cache`` to let strategies reuse each other's paid-for scores.
        """
        if strategy not in SEARCH_STRATEGIES:
            raise ValueError(f"unknown search strategy {strategy!r}")
        started = time.perf_counter()
        X, _ = table.to_feature_matrix(target=target)
        y = table.target_vector(target)
        evaluator = FitnessEvaluator(
            X,
            y,
            cv=cv,
            random_state=self.random_state,
            executor=self.executor,
            cache=cache,
        )
        if strategy == "evolution":
            return self._search_evolution(
                table,
                evaluator,
                started,
                time_budget_seconds,
                max_evaluations,
                population_size,
                generations,
            )
        return self._search_random(
            table, evaluator, started, time_budget_seconds, max_evaluations
        )

    def _search_evolution(
        self,
        table: Table,
        evaluator: FitnessEvaluator,
        started: float,
        time_budget_seconds: Optional[float],
        max_evaluations: int,
        population_size: int,
        generations: int,
    ) -> AutoMLResult:
        book = self.prior_book(table)
        # Clamp the population so the budget affords the screen sweep plus
        # the promotion fulls — otherwise small budgets are consumed by
        # screens and the loop never scores a pipeline at full fidelity.
        reserve = min(evaluator.promote_top_k, max(1, max_evaluations // 2))
        affordable = int(
            (float(max_evaluations) - reserve) / evaluator.screen_cost + 1e-9
        )
        population_size = max(2, min(population_size, affordable))
        config = EvolutionConfig(
            population_size=population_size,
            generations=generations,
            max_evaluations=float(max_evaluations),
            time_budget_seconds=time_budget_seconds,
            seed=self.random_state,
        )
        search = EvolutionarySearch(evaluator, book, config)
        outcome = search.run()
        estimator_node = (
            outcome.best_genome.estimator_node if outcome.best_genome else None
        )
        return AutoMLResult(
            best_estimator_name=estimator_node.operation if estimator_node else "",
            best_configuration=dict(estimator_node.params) if estimator_node else {},
            best_score=max(outcome.best_score, 0.0),
            evaluations=(
                evaluator.stats.screen_evaluations + evaluator.stats.full_evaluations
            ),
            elapsed_seconds=time.perf_counter() - started,
            strategy="evolution",
            best_genome=(
                outcome.best_genome.descriptive_id if outcome.best_genome else None
            ),
            evaluations_spent=outcome.evaluations_spent,
            generations_run=outcome.generations_run,
            stopped_because=outcome.stopped_because,
            cache_stats=outcome.cache_stats,
            fidelity_stats=outcome.fidelity_stats,
            operator_stats=outcome.operator_stats,
        )

    def _search_random(
        self,
        table: Table,
        evaluator: FitnessEvaluator,
        started: float,
        time_budget_seconds: Optional[float],
        max_evaluations: int,
    ) -> AutoMLResult:
        """The budgeted random baseline, deduped by configuration hash.

        Every sample becomes a bare-estimator genome
        (:meth:`PipelineGenome.single_estimator`) evaluated through the same
        :class:`FitnessCache` as the evolutionary strategy; re-sampled
        configurations are skipped without consuming budget.
        """
        recommendations = self.recommend_ml_models(table)
        rng = np.random.RandomState(self.random_state)
        best_name, best_configuration, best_score = "", {}, -1.0
        best_genome: Optional[PipelineGenome] = None
        trace: List[Tuple[str, Dict[str, Any], float]] = []
        evaluations = 0
        duplicates = 0
        attempted: set = set()
        candidate_cycle = recommendations or [
            EstimatorRecommendation(name, 0, 0.0) for name in default_estimator_names()
        ]
        draws = 0
        max_draws = max_evaluations * 8  # bounded even when the space saturates
        while evaluations < max_evaluations and draws < max_draws:
            if (
                time_budget_seconds is not None
                and time.perf_counter() - started > time_budget_seconds
            ):
                break
            recommendation = candidate_cycle[draws % len(candidate_cycle)]
            draws += 1
            priors = recommendation.hyperparameter_priors if self.use_lids_priors else None
            configuration = sample_configuration(
                recommendation.estimator_name, rng, priors=priors
            )
            genome = PipelineGenome.single_estimator(
                recommendation.estimator_name, configuration
            )
            if genome.genome_hash in attempted:
                duplicates += 1
                continue
            attempted.add(genome.genome_hash)
            score = evaluator.evaluate_full(genome)
            trace.append((recommendation.estimator_name, configuration, score))
            if score > best_score:
                best_name, best_configuration, best_score = (
                    recommendation.estimator_name,
                    configuration,
                    score,
                )
                best_genome = genome
            evaluations += 1
        return AutoMLResult(
            best_estimator_name=best_name,
            best_configuration=best_configuration,
            best_score=max(best_score, 0.0),
            evaluations=evaluations,
            elapsed_seconds=time.perf_counter() - started,
            trace=trace,
            strategy="random",
            best_genome=best_genome.descriptive_id if best_genome else None,
            evaluations_spent=round(evaluator.spent, 4),
            duplicate_samples=duplicates,
            cache_stats=evaluator.cache.stats(),
            fidelity_stats=evaluator.stats.as_dict(),
        )
