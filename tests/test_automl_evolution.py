"""Tests for the evolutionary pipeline-graph optimizer (repro.automl.evolution)."""

import time

import numpy as np
import pytest

from repro.automl.evolution import (
    FULL,
    SCREEN,
    EvolutionConfig,
    EvolutionarySearch,
    FitnessCache,
    FitnessEvaluator,
    GenomeValidityError,
    OperatorPool,
    PipelineGenome,
    PriorBook,
    apply_mutation,
    crossover_stage_splice,
    mutate_add_node,
    mutate_perturb_param,
)
from repro.automl.evolution.genome import MAX_NODES, STAGE_CAPACITY
from repro.automl.kgpip import KGpipAutoML
from repro.datagen import (
    generate_automl_datasets,
    generate_classification_dataset,
    generate_cleaning_datasets,
    generate_discovery_benchmark,
    generate_pipeline_corpus,
    generate_transformation_datasets,
)
from repro.interfaces import KGLiDS, LiDSClient
from repro.kg.ontology import LiDSOntology, library_uri
from repro.parallel import JobExecutor
from repro.rdf import Literal, URIRef


def _chain_genome() -> PipelineGenome:
    genome = PipelineGenome()
    scaler = genome.add_node("sklearn.preprocessing.StandardScaler")
    genome.add_node(
        "sklearn.tree.DecisionTreeClassifier",
        params={"max_depth": 4},
        parents=[scaler],
    )
    return genome


def _small_xy(seed=5, n_rows=90):
    table, target = generate_classification_dataset(
        "evo_fit", n_rows=n_rows, n_features=4, seed=seed
    )
    X, _ = table.to_feature_matrix(target=target)
    y = table.target_vector(target)
    return X, y


class TestGenome:
    def test_canonical_hash_ignores_insertion_order(self):
        first = PipelineGenome()
        scaler = first.add_node("sklearn.preprocessing.StandardScaler")
        feature = first.add_node("numpy.log1p", parents=[scaler])
        first.add_node("sklearn.naive_bayes.GaussianNB", parents=[feature])

        # Same structure, nodes created in a different order / with other ids.
        second = PipelineGenome()
        second.add_node("sklearn.impute.SimpleImputer")  # decoy, removed below
        second.remove_node("n0")
        scaler2 = second.add_node("sklearn.preprocessing.StandardScaler")
        feature2 = second.add_node("numpy.log1p", parents=[scaler2])
        second.add_node("sklearn.naive_bayes.GaussianNB", parents=[feature2])

        assert first.descriptive_id == second.descriptive_id
        assert first.genome_hash == second.genome_hash

    def test_hash_distinguishes_params_and_structure(self):
        base = _chain_genome()
        other = _chain_genome()
        assert base.genome_hash == other.genome_hash
        estimator = other.estimator_node
        other.set_param(estimator.node_id, "max_depth", 8)
        assert base.genome_hash != other.genome_hash

    def test_mutations_reset_cached_descriptive_id(self):
        genome = _chain_genome()
        before = genome.descriptive_id
        assert genome._descriptive_id is not None  # cached
        genome.add_node("sklearn.impute.SimpleImputer")
        assert genome._descriptive_id is None  # invalidated
        genome.remove_node(genome.nodes_of_stage("imputation")[0].node_id)
        assert genome.descriptive_id == before

    def test_validity_rules(self):
        empty = PipelineGenome()
        assert "expected exactly one estimator" in empty.validity_errors()[0]

        two_estimators = _chain_genome()
        two_estimators.add_node("sklearn.naive_bayes.GaussianNB")
        assert not two_estimators.is_valid()

        backwards = _chain_genome()
        estimator_id = backwards.estimator_node.node_id
        feature = backwards.add_node("numpy.sqrt", parents=[estimator_id])
        backwards.connect(feature, estimator_id)
        errors = "; ".join(backwards.validity_errors())
        assert "cycle" in errors or "backwards" in errors

    def test_capacity_and_node_caps(self):
        genome = _chain_genome()
        genome.add_node("sklearn.preprocessing.MinMaxScaler")
        genome.add_node("sklearn.preprocessing.RobustScaler")
        assert any("stage preprocessing" in e for e in genome.validity_errors())
        assert STAGE_CAPACITY["estimator"] == 1
        assert MAX_NODES == 6

    def test_plan_round_trip(self):
        genome = _chain_genome()
        plan = genome.to_plan()
        rebuilt = PipelineGenome.from_plan(plan)
        assert rebuilt.genome_hash == genome.genome_hash
        assert rebuilt.to_plan()["order"] == plan["order"]

    def test_single_estimator_matches_evolved_bare_genome(self):
        configuration = {"max_depth": 4}
        sampled = PipelineGenome.single_estimator(
            "sklearn.tree.DecisionTreeClassifier", configuration
        )
        evolved = PipelineGenome()
        evolved.add_node("sklearn.tree.DecisionTreeClassifier", params=configuration)
        assert sampled.genome_hash == evolved.genome_hash

    def test_unknown_operation_rejected(self):
        with pytest.raises(GenomeValidityError):
            PipelineGenome().add_node("sklearn.magic.Estimator")


class TestOperators:
    def test_mutations_always_produce_valid_genomes(self):
        rng = np.random.RandomState(0)
        book = PriorBook.uniform()
        pool = OperatorPool()
        genome = book.sample_genome(rng)
        for _ in range(60):
            child, name = apply_mutation(genome, rng, book, pool)
            if child is None:
                continue
            assert name in dict(pool.operators) or name is None
            assert child.is_valid()
            assert genome.is_valid()  # parent untouched
            genome = child

    def test_add_node_respects_caps(self):
        rng = np.random.RandomState(1)
        book = PriorBook.uniform()
        genome = _chain_genome()
        for _ in range(20):
            child = mutate_add_node(genome, rng, book)
            if child is None:
                break
            assert len(child.nodes) <= MAX_NODES
            genome = child
        assert len(genome.nodes) <= MAX_NODES

    def test_perturb_steps_to_neighbouring_candidate(self):
        rng = np.random.RandomState(2)
        book = PriorBook.uniform()
        genome = PipelineGenome.single_estimator(
            "sklearn.neighbors.KNeighborsClassifier", {"n_neighbors": 5}
        )
        child = mutate_perturb_param(genome, rng, book)
        assert child is not None
        value = child.estimator_node.params["n_neighbors"]
        assert value in (3, 7)  # one ordered step away from 5

    def test_crossover_valid_by_construction(self):
        rng = np.random.RandomState(3)
        book = PriorBook.uniform()
        for _ in range(25):
            first, second = book.sample_genome(rng), book.sample_genome(rng)
            child = crossover_stage_splice(first, second, rng)
            assert child is not None and child.is_valid()

    def test_pool_adapts_selection_probabilities(self):
        pool = OperatorPool()
        before = pool.selection_probabilities()
        assert abs(sum(before.values()) - 1.0) < 1e-9
        for _ in range(10):
            pool.reward("perturb_param", True)
            pool.reward("remove_node", False)
        after = pool.selection_probabilities()
        assert after["perturb_param"] > before["perturb_param"]
        assert after["remove_node"] < before["remove_node"]
        stats = pool.stats()
        assert stats["perturb_param"]["successes"] == 10
        assert stats["remove_node"]["attempts"] == 10


class TestPriors:
    def test_uniform_book_covers_every_stage(self):
        book = PriorBook.uniform()
        assert not book.informed
        for stage in ("imputation", "preprocessing", "feature", "estimator"):
            assert book.operation_weights[stage]

    def test_harvested_from_bootstrapped_graph(self, bootstrapped_platform):
        book = PriorBook.from_client(bootstrapped_platform.storage)
        assert book.informed
        # The synthetic corpus always trains estimators, so estimator weights
        # must be non-uniform and the ranking non-empty.
        weights = book.operation_weights["estimator"]
        assert max(weights.values()) > min(weights.values())
        assert book.estimator_ranking()

    def test_harvest_falls_back_to_uniform_on_empty_surface(self):
        class Broken:
            def query(self, _):
                raise RuntimeError("no graph here")

        book = PriorBook.from_client(Broken())
        assert not book.informed

    def test_prior_biases_operation_choice(self):
        book = PriorBook.uniform()
        book.operation_weights["estimator"]["sklearn.naive_bayes.GaussianNB"] = 500.0
        book.prior_probability = 1.0
        rng = np.random.RandomState(4)
        draws = [book.choose_operation(rng, "estimator") for _ in range(60)]
        assert draws.count("sklearn.naive_bayes.GaussianNB") > 45

    def test_recorded_values_snap_into_space(self):
        book = PriorBook.uniform()
        # 6 is not a KNN candidate; it must snap to a neighbouring one.
        book.value_weights[("sklearn.neighbors.KNeighborsClassifier", "n_neighbors")] = {6: 10.0}
        book.prior_probability = 1.0
        rng = np.random.RandomState(5)
        values = {
            book.choose_param_value(
                rng, "sklearn.neighbors.KNeighborsClassifier", "n_neighbors"
            )
            for _ in range(20)
        }
        assert 6 not in values

    def test_population_seeded_with_prior_top_estimators(self):
        book = PriorBook.uniform()
        book.operation_weights["estimator"]["sklearn.naive_bayes.GaussianNB"] = 99.0
        rng = np.random.RandomState(6)
        population = book.sample_population(rng, 9)
        assert len(population) == 9
        first = population[0]
        assert len(first.nodes) == 1  # bare estimator seed
        assert first.estimator_node.operation == "sklearn.naive_bayes.GaussianNB"
        assert all(genome.is_valid() for genome in population)


class TestFitness:
    def test_cache_hits_and_dedup(self):
        X, y = _small_xy()
        evaluator = FitnessEvaluator(X, y, cv=2)
        genome = _chain_genome()
        first = evaluator.evaluate_full(genome)
        second = evaluator.evaluate_full(genome.copy())
        assert first == second
        assert evaluator.cache.hits == 1
        assert evaluator.stats.full_evaluations == 1
        assert evaluator.spent == 1.0

    def test_screen_cheaper_than_full_and_promotions_counted(self):
        X, y = _small_xy(n_rows=120)
        evaluator = FitnessEvaluator(X, y, cv=2, promote_top_k=2)
        assert 0.0 < evaluator.screen_cost < 1.0
        book = PriorBook.uniform()
        rng = np.random.RandomState(7)
        population = book.sample_population(rng, 5)
        fitness = evaluator.evaluate_population(population)
        assert len(fitness) >= 1
        assert evaluator.stats.promotions == 2
        assert evaluator.stats.full_evaluations == 2
        assert evaluator.stats.screen_evaluations == len(
            {g.genome_hash for g in population}
        )

    def test_max_spend_truncates_fanout(self):
        X, y = _small_xy()
        evaluator = FitnessEvaluator(X, y, cv=2, max_spend=2.0)
        book = PriorBook.uniform()
        rng = np.random.RandomState(8)
        population = book.sample_population(rng, 12)
        evaluator.evaluate_population(population)
        assert evaluator.spent <= 2.0 + 1e-9

    def test_degenerate_plan_scores_zero(self):
        X, y = _small_xy()
        evaluator = FitnessEvaluator(X[:4], y[:4], cv=2)
        genome = PipelineGenome.single_estimator(
            "sklearn.neighbors.KNeighborsClassifier", {"n_neighbors": 50}
        )
        assert evaluator.evaluate_full(genome) == 0.0


class TestEvolutionDeterminism:
    """Satellite: same seed => byte-identical outcome, any executor backend."""

    def _run(self, executor=None, seed=13):
        X, y = _small_xy(seed=9, n_rows=100)
        evaluator = FitnessEvaluator(
            X, y, cv=2, random_state=seed, executor=executor, cache=FitnessCache()
        )
        config = EvolutionConfig(
            population_size=5, generations=3, max_evaluations=6.0, seed=seed
        )
        search = EvolutionarySearch(evaluator, PriorBook.uniform(), config)
        return search.run()

    def test_identical_across_runs(self):
        first, second = self._run(), self._run()
        assert first.best_hash == second.best_hash
        assert first.best_score == second.best_score
        assert first.best_genome.descriptive_id == second.best_genome.descriptive_id
        assert first.history == second.history

    def test_identical_across_executor_backends(self):
        reference = self._run(JobExecutor(backend="serial"))
        for backend in ("threads", "processes"):
            result = self._run(JobExecutor(backend=backend, max_workers=4))
            assert result.best_hash == reference.best_hash
            assert result.best_score == reference.best_score

    def test_different_seeds_explore_differently(self):
        first = self._run(seed=13)
        second = self._run(seed=14)
        assert first.history != second.history


class TestEvolutionLoop:
    def test_budget_never_overdrawn_and_leftover_spent(self):
        X, y = _small_xy(seed=10, n_rows=110)
        evaluator = FitnessEvaluator(X, y, cv=2, random_state=3)
        config = EvolutionConfig(
            population_size=6, generations=5, max_evaluations=7.0, seed=3
        )
        outcome = EvolutionarySearch(evaluator, PriorBook.uniform(), config).run()
        assert outcome.evaluations_spent <= 7.0 + 1e-9
        # The mop-up leaves less than one full evaluation on the table.
        assert 7.0 - outcome.evaluations_spent < 1.0
        assert outcome.best_genome is not None
        assert outcome.best_score > 0.0
        assert outcome.fidelity_stats["promotions"] >= 1
        assert "crossover" in outcome.operator_stats

    @pytest.mark.parametrize(
        "population_size, generations, stopped_because",
        [(6, 1000, "time budget"), (40, 0, "generations")],
        ids=["clock-stops-the-loop", "clock-stops-the-mop-up"],
    )
    def test_time_budget_bounds_the_search(
        self, population_size, generations, stopped_because
    ):
        """Past the deadline nothing more is evaluated, the budget mop-up included.

        The mop-up promotes at most ``promote_top_k`` genomes a slice, and no
        generation or slice starts after the deadline. The one running when
        the clock runs out may overrun it; the search then returns. So wall
        time stays under the budget plus the longest generation or mop-up
        slice, however much evaluation budget is left.
        """
        X, y = _small_xy(seed=7, n_rows=140)
        evaluator = FitnessEvaluator(X, y, cv=3, random_state=1)
        steps = []  # (start, duration) of each generation and mop-up slice
        slice_sizes = []

        def timed(evaluate):
            def run(genomes):
                start = time.monotonic()
                fitness = evaluate(genomes)
                steps.append((start, time.monotonic() - start))
                return fitness

            return run

        evaluator.evaluate_population = timed(evaluator.evaluate_population)
        promote_slice = timed(evaluator.promote_screened)

        def promote_screened(genomes):
            slice_sizes.append(len(genomes))
            return promote_slice(genomes)

        evaluator.promote_screened = promote_screened
        config = EvolutionConfig(
            population_size=population_size,
            generations=generations,
            max_evaluations=10**6,
            time_budget_seconds=1.0,
            early_stopping_rounds=1000,
            seed=1,
        )
        started = time.monotonic()
        outcome = EvolutionarySearch(evaluator, PriorBook.uniform(), config).run()
        elapsed = time.monotonic() - started
        assert outcome.stopped_because == stopped_because
        assert max(slice_sizes, default=0) <= evaluator.promote_top_k
        slack = 0.05
        latest_start = max(start for start, _ in steps) - started
        assert latest_start < config.time_budget_seconds + slack
        longest_step = max(duration for _, duration in steps)
        assert elapsed < config.time_budget_seconds + longest_step + slack

    def test_early_stopping(self):
        X, y = _small_xy(seed=11, n_rows=80)
        evaluator = FitnessEvaluator(X, y, cv=2, random_state=1)
        config = EvolutionConfig(
            population_size=4, generations=30, early_stopping_rounds=1, seed=1
        )
        outcome = EvolutionarySearch(evaluator, PriorBook.uniform(), config).run()
        assert outcome.stopped_because in ("early stopping", "generations")
        assert outcome.generations_run < 30


class TestKGpipIntegration:
    def test_random_search_dedups_through_shared_cache(self, bootstrapped_platform):
        table, target = generate_classification_dataset(
            "evo_dedup", n_rows=70, n_features=3, seed=12
        )
        searcher = KGpipAutoML(
            storage=bootstrapped_platform.storage,
            profiler=bootstrapped_platform.governor.profiler,
            colr_models=bootstrapped_platform.governor.colr_models,
            random_state=2,
        )
        result = searcher.search(
            table, target, time_budget_seconds=None, max_evaluations=20, cv=2,
            strategy="random",
        )
        # A 20-evaluation budget over the small recommended space must hit
        # duplicate configurations; they are skipped without spending budget.
        assert result.duplicate_samples > 0
        assert result.evaluations_spent <= 20.0
        assert result.cache_stats["entries"] == result.evaluations

    def test_evolution_with_priors_matches_or_beats_random_at_equal_budget(
        self, bootstrapped_platform
    ):
        """KG-prior evolution vs deduped random search, same evaluation budget.

        On skewed, scale-spread datasets (where pipeline structure moves the
        score) evolution's mean best score is within ``parity_slack`` of
        random's or above it; neither strategy overdraws the budget, and
        evolution's fitness cache serves repeated genomes.
        """
        budget, parity_slack = 8, 0.01
        best = {"evolution": [], "random": []}
        cache_hits = 0
        for dataset in generate_transformation_datasets(count=3, base_rows=110):
            for strategy in best:
                searcher = KGpipAutoML(
                    storage=bootstrapped_platform.storage,
                    profiler=bootstrapped_platform.governor.profiler,
                    colr_models=bootstrapped_platform.governor.colr_models,
                    random_state=11,
                )
                result = searcher.search(
                    dataset.table, dataset.target, time_budget_seconds=None,
                    max_evaluations=budget, cv=2, strategy=strategy,
                )
                assert result.evaluations_spent <= budget + 1e-9, (dataset.name, strategy)
                best[strategy].append(result.best_score)
                if strategy == "evolution":
                    cache_hits += result.cache_stats["hits"]
        assert np.mean(best["evolution"]) >= np.mean(best["random"]) - parity_slack, best
        assert cache_hits > 0

    def test_evolution_strategy_via_client(self, bootstrapped_platform):
        table, target = generate_classification_dataset(
            "evo_client", n_rows=90, n_features=4, seed=13
        )
        result = bootstrapped_platform.automl(
            table, target, max_evaluations=5, cv=2, time_budget_seconds=None
        )
        assert result.strategy == "evolution"
        assert result.best_genome
        assert result.evaluations_spent <= 5.0 + 1e-9
        assert result.fidelity_stats["screen_evaluations"] > 0

    def test_automl_over_saved_directory(self, bootstrapped_platform, tmp_path):
        from repro.interfaces import LiDSClient

        directory = bootstrapped_platform.governor.save(tmp_path / "saved_lake")
        client = LiDSClient.open(directory)
        try:
            # Priors harvest by SPARQL through the read-only surface too.
            book = client.kgpip.prior_book()
            assert book.informed
            table, target = generate_classification_dataset(
                "evo_saved", n_rows=80, n_features=3, seed=15
            )
            result = client.automl(
                table, target, max_evaluations=4, cv=2, time_budget_seconds=None
            )
            assert result.strategy == "evolution"
            assert result.best_estimator_name
        finally:
            client.close()

    def test_unknown_strategy_rejected(self, bootstrapped_platform):
        table, target = generate_classification_dataset(
            "evo_bad", n_rows=50, n_features=3, seed=14
        )
        with pytest.raises(ValueError):
            bootstrapped_platform.automl(table, target, strategy="annealing")


# ------------------------------------------------------------- prior cache
def _fresh_platform(pipelines=None):
    """The shared fixture's lake and corpus (``pipelines``: the first N scripts), bootstrapped privately."""
    benchmark = generate_discovery_benchmark("tus_small", seed=11, base_tables=3, partitions=3, rows=50)
    scripts = generate_pipeline_corpus(benchmark.lake, pipelines_per_table=2, seed=3)
    platform = KGLiDS.bootstrap(lake=benchmark.lake, scripts=scripts[:pipelines], train_models=False)
    return platform, scripts[pipelines:] if pipelines else []


def _pool():
    """The ``automate`` benchmark's three unseen 20-row tables."""
    generators = (generate_cleaning_datasets, generate_transformation_datasets, generate_automl_datasets)
    return [generator(count=4, seed=0, base_rows=20)[0] for generator in generators]


def _search(searcher, dataset):
    return searcher.search(dataset.table, dataset.target, time_budget_seconds=None, max_evaluations=3, cv=2)


def _outcome(result):
    """Everything a search decides (not its elapsed time)."""
    return (
        result.best_genome, result.best_score, result.evaluations, result.evaluations_spent,
        result.generations_run, result.stopped_because, result.cache_stats, result.fidelity_stats,
        result.operator_stats,
    )


def _new_searcher(platform):
    return KGpipAutoML(
        storage=platform.storage, profiler=platform.governor.profiler, colr_models=platform.governor.colr_models
    )


@pytest.fixture()
def harvests(monkeypatch):
    """The clients ``PriorBook.from_client`` was called with; the real harvest still runs."""
    calls = []
    harvest = PriorBook.from_client.__func__

    def counted(cls, client, prior_probability=0.6):
        calls.append(client)
        return harvest(cls, client, prior_probability)

    monkeypatch.setattr(PriorBook, "from_client", classmethod(counted))
    return calls


class TestPriorCache:
    """The corpus-wide book is harvested once per ``QuadStore.version``."""

    def test_unchanged_store_harvests_once_and_searches_as_if_fresh(self, harvests):
        platform, _ = _fresh_platform()
        pool = _pool()
        kept = [_outcome(_search(platform.kgpip, dataset)) for dataset in pool + pool]
        assert len(harvests) == 1
        fresh = [_outcome(_search(_new_searcher(platform), dataset)) for dataset in pool + pool]
        assert len(harvests) == 1 + len(fresh)
        assert kept == fresh

    def test_a_governor_write_harvests_again(self, harvests):
        platform, later = _fresh_platform(pipelines=6)
        before = platform.kgpip.prior_book()
        assert platform.kgpip.prior_book() == before and len(harvests) == 1
        version = platform.storage.graph.version
        platform.governor.add_pipelines(later)
        assert platform.storage.graph.version > version
        after = platform.kgpip.prior_book()
        assert len(harvests) == 2
        assert after != before
        assert after == PriorBook.from_client(platform.storage)

    def test_a_harvest_inside_a_rolled_back_batch_is_not_kept(self):
        """The rollback restores the version, so a later write can reach the batch's version again."""
        platform, _ = _fresh_platform()
        store = platform.storage.graph
        graph = URIRef("http://kglids.org/test/rolled-back")
        call = (URIRef("http://kglids.org/test/statement"), LiDSOntology.callsFunction,
                library_uri("sklearn.naive_bayes.GaussianNB"))
        with pytest.raises(RuntimeError):
            with store.write_batch():
                store.add(*call, graph=graph)
                inside = platform.kgpip.prior_book()
                raise RuntimeError("roll back")
        version = store.version
        store.add(call[0], LiDSOntology.hasName, Literal("unrelated"), graph=graph)
        assert store.version == version + 1
        after = platform.kgpip.prior_book()
        assert after != inside
        assert after == PriorBook.from_client(platform.storage)

    def test_another_store_at_the_same_version_harvests_again(self, harvests):
        platform, _ = _fresh_platform()
        twin, _ = _fresh_platform()
        assert twin.storage.graph.version == platform.storage.graph.version
        searcher = _new_searcher(platform)
        searcher.prior_book()
        searcher.storage = twin.storage
        searcher.prior_book()
        assert harvests == [platform.storage, twin.storage]

    def test_reopen_harvests_again(self, harvests, tmp_path):
        platform, _ = _fresh_platform()
        client = LiDSClient.open(platform.governor.save(tmp_path / "saved_lake"))
        try:
            first = client.kgpip.prior_book()
            client.kgpip.prior_book()
            assert len(harvests) == 1
            client.reopen()
            assert client.kgpip.prior_book() == first
            assert len(harvests) == 2
        finally:
            client.close()

    def test_a_tables_folded_recommendations_stay_in_its_own_book(self):
        platform, _ = _fresh_platform()
        first, second = _pool()[:2]
        corpus = platform.kgpip.prior_book()
        folded = platform.kgpip.prior_book(first.table)
        assert folded != corpus, "the fixture must fold a recommendation into the book"
        assert platform.kgpip.prior_book(second.table) == _new_searcher(platform).prior_book(second.table)
        assert platform.kgpip.prior_book() == corpus
        assert platform.kgpip.prior_book(first.table) == folded

    def test_a_raising_harvest_is_not_kept(self, harvests, monkeypatch):
        platform, _ = _fresh_platform()
        harvest = PriorBook.from_client.__func__
        failures = [RuntimeError("transient")]

        def flaky(cls, client, prior_probability=0.6):
            if failures:
                raise failures.pop()
            return harvest(cls, client, prior_probability)

        monkeypatch.setattr(PriorBook, "from_client", classmethod(flaky))
        with pytest.raises(RuntimeError):
            platform.kgpip.prior_book()
        assert not harvests
        assert platform.kgpip.prior_book().informed
        assert len(harvests) == 1
        platform.kgpip.prior_book()
        assert len(harvests) == 1

    def test_a_failed_query_falls_back_and_is_not_kept(self, harvests, monkeypatch):
        platform, _ = _fresh_platform()
        storage = platform.storage
        query = storage.query
        failures = [RuntimeError("transient")]

        def flaky(sparql):
            if failures:
                raise failures.pop()
            return query(sparql)

        monkeypatch.setattr(storage, "query", flaky)
        assert platform.kgpip.prior_book() == PriorBook.uniform()
        assert platform.kgpip.prior_book() == PriorBook.from_client(storage)
        assert platform.kgpip.prior_book().informed
        assert len(harvests) == 3

    def test_mutating_a_copy_leaves_the_original(self):
        platform, _ = _fresh_platform()
        original = PriorBook.from_client(platform.storage)
        snapshot = PriorBook.from_client(platform.storage)
        copy = original.copy()
        assert copy == original
        copy.operation_weights["estimator"]["sklearn.naive_bayes.GaussianNB"] = 1e6
        copy.value_weights.setdefault(("sklearn.neighbors.KNeighborsClassifier", "n_neighbors"), {})[3] = 1e6
        for bucket in copy.value_weights.values():
            bucket["injected"] = 1.0
        copy.prior_probability = 1.0
        assert original == snapshot


class TestSearchPin:
    """The ``automate`` pool's searches, as recorded before the corpus book was kept."""

    EXPECTED = {
        "cleaning_1": (
            "(((input)->sklearn.preprocessing.StandardScaler[])->numpy.log1p[]"
            "|((input)->sklearn.preprocessing.StandardScaler[])->numpy.sqrt[])"
            "->xgboost.XGBClassifier[learning_rate=0.1,max_depth=4,n_estimators=10]",
            0.27444444444444444,
        ),
        "transform_1": (
            "(input)->xgboost.XGBClassifier[learning_rate=0.3,max_depth=6,n_estimators=40]",
            0.359920634920635,
        ),
        "automl_1": (
            "(input)->xgboost.XGBClassifier[learning_rate=0.3,max_depth=6,n_estimators=40]",
            0.7999999999999999,
        ),
    }

    def test_pool_searches_repeat_the_recorded_results(self):
        platform, _ = _fresh_platform()
        pool = _pool()
        assert [dataset.name for dataset in pool] == list(self.EXPECTED)
        for dataset in pool + pool:
            result = _search(platform.kgpip, dataset)
            assert (result.best_genome, result.best_score) == self.EXPECTED[dataset.name], dataset.name
            assert result.evaluations == 3, dataset.name
            assert result.cache_stats == {"hits": 0, "misses": 3, "entries": 3}, dataset.name
