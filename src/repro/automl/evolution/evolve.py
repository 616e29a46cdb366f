"""The generational loop: tournament selection, elitism, budgets, stopping.

:class:`EvolutionarySearch` ties the subsystem together: a prior-seeded
initial population, offspring bred by the adaptive operator pool (mutation)
and stage-splice crossover, fitness from the memoized multi-fidelity
evaluator, and three stopping conditions — generation count, an evaluation
budget in *full-evaluation cost units* (so it is directly comparable with
the budgeted random search), and an optional wall-clock budget.

Determinism: the only RNG lives in this loop's thread and is seeded from
``EvolutionConfig.seed``; per-genome evaluation seeds are derived from
genome hashes (see :func:`~repro.automl.evolution.fitness.genome_seed`), so
the same seed yields byte-identical results on every executor backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.automl.evolution.fitness import FULL, SCREEN, FitnessEvaluator
from repro.automl.evolution.genome import PipelineGenome
from repro.automl.evolution.operators import (
    OperatorPool,
    apply_mutation,
    crossover_stage_splice,
)
from repro.automl.evolution.priors import PriorBook


@dataclass
class EvolutionConfig:
    """Knobs of the generational loop (defaults sized for small lakes)."""

    population_size: int = 12
    generations: int = 8
    tournament_size: int = 3
    elitism: int = 2
    crossover_rate: float = 0.3
    #: Budget in full-evaluation cost units (a screen costs its subsample
    #: fraction).  ``None`` = bounded by ``generations`` only.
    max_evaluations: Optional[float] = None
    time_budget_seconds: Optional[float] = None
    #: Stop after this many generations without a new best full-fidelity score.
    early_stopping_rounds: int = 4
    seed: int = 0


@dataclass
class EvolutionResult:
    """Outcome of one evolutionary run, with full search telemetry."""

    best_genome: Optional[PipelineGenome]
    best_score: float
    best_hash: Optional[str]
    generations_run: int
    stopped_because: str
    evaluations_spent: float
    history: List[Dict[str, Any]] = field(default_factory=list)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    fidelity_stats: Dict[str, int] = field(default_factory=dict)
    operator_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


class EvolutionarySearch:
    """GOLEM-style evolutionary optimisation of pipeline genomes."""

    def __init__(
        self,
        evaluator: FitnessEvaluator,
        priors: Optional[PriorBook] = None,
        config: Optional[EvolutionConfig] = None,
        pool: Optional[OperatorPool] = None,
    ):
        self.evaluator = evaluator
        self.priors = priors or PriorBook.uniform()
        self.config = config or EvolutionConfig()
        self.pool = pool or OperatorPool()
        self.crossover_attempts = 0
        self.crossover_successes = 0
        #: Every genome ever seen, by hash — lets the result map the winning
        #: cache entry back to its genome.
        self.seen: Dict[str, PipelineGenome] = {}

    # ------------------------------------------------------------------- pieces
    def _fitness_of(self, fitness: Dict[str, float], genome: PipelineGenome) -> float:
        return fitness.get(genome.genome_hash, 0.0)

    def _tournament(
        self,
        population: List[PipelineGenome],
        fitness: Dict[str, float],
        rng: np.random.RandomState,
    ) -> PipelineGenome:
        picks = rng.randint(len(population), size=self.config.tournament_size)
        return max(
            (population[int(i)] for i in picks),
            key=lambda g: (self._fitness_of(fitness, g), g.genome_hash),
        )

    def _best(self) -> Tuple[Optional[str], float]:
        entry = self.evaluator.cache.best_full()
        if entry is None:
            return None, float("-inf")
        return entry

    def _record(self, genomes: List[PipelineGenome]) -> None:
        for genome in genomes:
            self.seen.setdefault(genome.genome_hash, genome)

    def _make_offspring(
        self,
        population: List[PipelineGenome],
        fitness: Dict[str, float],
        rng: np.random.RandomState,
    ) -> Tuple[List[PipelineGenome], List[Tuple[str, str, float]]]:
        """Breed the next population; returns it plus credit-assignment notes.

        Each note is ``(child_hash, operator_name, parent_fitness)`` — after
        the offspring are evaluated, an operator is rewarded when its child
        beat the parent it came from.
        """
        ranked = sorted(
            population,
            key=lambda g: (-self._fitness_of(fitness, g), g.genome_hash),
        )
        offspring: List[PipelineGenome] = []
        elite_hashes: set = set()
        for genome in ranked:
            if genome.genome_hash in elite_hashes:
                continue
            offspring.append(genome.copy())
            elite_hashes.add(genome.genome_hash)
            if len(offspring) >= self.config.elitism:
                break
        credits: List[Tuple[str, str, float]] = []
        while len(offspring) < self.config.population_size:
            if rng.rand() < self.config.crossover_rate:
                first = self._tournament(population, fitness, rng)
                second = self._tournament(population, fitness, rng)
                child = crossover_stage_splice(first, second, rng)
                if child is not None:
                    self.crossover_attempts += 1
                    parent_fitness = max(
                        self._fitness_of(fitness, first),
                        self._fitness_of(fitness, second),
                    )
                    credits.append((child.genome_hash, "crossover", parent_fitness))
                    offspring.append(child)
                    continue
            parent = self._tournament(population, fitness, rng)
            child, operator_name = apply_mutation(parent, rng, self.priors, self.pool)
            if child is None:
                # No operator applied — inject a fresh prior-sampled immigrant
                # instead of wasting the slot on a clone.
                child = self.priors.sample_genome(rng)
            else:
                credits.append(
                    (child.genome_hash, operator_name, self._fitness_of(fitness, parent))
                )
            offspring.append(child)
        return offspring, credits

    def _assign_credit(
        self, credits: List[Tuple[str, str, float]], fitness: Dict[str, float]
    ) -> None:
        for child_hash, operator_name, parent_fitness in credits:
            improved = fitness.get(child_hash, 0.0) > parent_fitness
            if operator_name == "crossover":
                self.crossover_successes += int(improved)
            else:
                self.pool.reward(operator_name, improved)

    def _spend_leftover_budget(self, started: float) -> None:
        """Promote best screened-only genomes with whatever budget remains.

        Fan-out truncation can strand a sub-generation remainder of the
        evaluation budget; spending it on full evaluations of the
        best-screened unpromoted genomes keeps the comparison with the
        random baseline honest — both strategies use the whole ceiling.
        Promotions run ``promote_top_k`` at a time and stop at the deadline.
        """
        evaluator, config = self.evaluator, self.config
        remaining = config.max_evaluations - evaluator.spent
        if remaining < 1.0:
            return
        scores = evaluator.cache.scores
        candidates = sorted(
            (
                (score, genome_hash)
                for (genome_hash, fidelity), score in scores.items()
                if fidelity == SCREEN and (genome_hash, FULL) not in scores
            ),
            key=lambda item: (-item[0], item[1]),
        )
        promote = [
            self.seen[genome_hash]
            for _, genome_hash in candidates[: int(remaining + 1e-9)]
            if genome_hash in self.seen
        ]
        step = max(1, evaluator.promote_top_k)
        for at in range(0, len(promote), step):
            if self._out_of_time(started):
                break
            evaluator.promote_screened(promote[at : at + step])

    def _budget_left_for_generation(self, started: float) -> Optional[str]:
        """``None`` when another generation fits the budgets, else the reason.

        The hard no-overdraw guarantee lives in the evaluator
        (``max_spend`` truncates job fan-out); this check only skips
        generations that could not afford even a single screen evaluation.
        """
        config, evaluator = self.config, self.evaluator
        if config.max_evaluations is not None:
            if evaluator.spent + evaluator.screen_cost > config.max_evaluations:
                return "evaluation budget"
        if self._out_of_time(started):
            return "time budget"
        return None

    def _out_of_time(self, started: float) -> bool:
        budget = self.config.time_budget_seconds
        return budget is not None and time.monotonic() - started > budget

    # --------------------------------------------------------------------- run
    def run(self) -> EvolutionResult:
        config = self.config
        rng = np.random.RandomState(config.seed)
        started = time.monotonic()
        stopped_because = "generations"
        if config.max_evaluations is not None:
            self.evaluator.max_spend = config.max_evaluations
        population = self.priors.sample_population(rng, config.population_size)
        self._record(population)
        fitness_now = self.evaluator.evaluate_population(population)
        history = [self._history_entry(0, population, fitness_now)]
        best_hash, best_score = self._best()
        stale = 0
        generations_run = 0
        for generation in range(1, config.generations + 1):
            reason = self._budget_left_for_generation(started)
            if reason is not None:
                stopped_because = reason
                break
            if stale >= config.early_stopping_rounds:
                stopped_because = "early stopping"
                break
            population, credits = self._make_offspring(population, fitness_now, rng)
            self._record(population)
            fitness_now = self.evaluator.evaluate_population(population)
            self._assign_credit(credits, fitness_now)
            generations_run = generation
            history.append(self._history_entry(generation, population, fitness_now))
            new_best_hash, new_best_score = self._best()
            if new_best_score > best_score:
                best_hash, best_score = new_best_hash, new_best_score
                stale = 0
            else:
                stale += 1
        if config.max_evaluations is not None:
            self._spend_leftover_budget(started)
        best_hash, best_score = self._best()
        best_genome = self.seen.get(best_hash) if best_hash else None
        operator_stats = self.pool.stats()
        operator_stats["crossover"] = {
            "attempts": self.crossover_attempts,
            "successes": self.crossover_successes,
            "rate": round(
                self.crossover_successes / self.crossover_attempts, 4
            )
            if self.crossover_attempts
            else 0.0,
            "probability": self.config.crossover_rate,
        }
        return EvolutionResult(
            best_genome=best_genome,
            best_score=best_score if best_hash else 0.0,
            best_hash=best_hash,
            generations_run=generations_run,
            stopped_because=stopped_because,
            evaluations_spent=round(self.evaluator.spent, 4),
            history=history,
            cache_stats=self.evaluator.cache.stats(),
            fidelity_stats=self.evaluator.stats.as_dict(),
            operator_stats=operator_stats,
        )

    def _history_entry(
        self,
        generation: int,
        population: List[PipelineGenome],
        fitness: Dict[str, float],
    ) -> Dict[str, Any]:
        scores = [self._fitness_of(fitness, genome) for genome in population]
        _, best_full_score = self._best()
        return {
            "generation": generation,
            "best_fitness": round(max(scores), 6) if scores else 0.0,
            "mean_fitness": round(float(np.mean(scores)), 6) if scores else 0.0,
            "best_full_score": round(best_full_score, 6)
            if best_full_score > float("-inf")
            else None,
            "unique_genomes": len({g.genome_hash for g in population}),
            "spent": round(self.evaluator.spent, 4),
        }
