"""Memoized, multi-fidelity, parallel fitness evaluation for pipeline genomes.

Fitness of a genome is the cross-validated F1 of its materialized pipeline.
Three mechanisms keep the evaluation budget honest at scale:

* **Memoization** — :class:`FitnessCache` keys scores by genome hash and
  fidelity, so structurally identical genomes (reached by different mutation
  paths, or re-sampled by the budgeted random search) are evaluated once.
* **Multi-fidelity screening** — new genomes are first scored on a
  deterministic stratified row subsample (the *screen* fidelity); only the
  top-k of each generation are promoted to the *full* fidelity
  ``cross_val_f1``.  Budget accounting charges a screen at the subsample
  fraction of a full evaluation.
* **Parallel fan-out** — per-genome evaluations are independent jobs mapped
  over a :class:`~repro.parallel.JobExecutor`; the feature matrix ships once
  per worker via the executor's initializer, and every job carries a seed
  derived from the genome hash so results are byte-identical across the
  ``serial`` / ``threads`` / ``processes`` backends.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automl.evolution.genome import INPUT_NODE, PipelineGenome
from repro.automl.search_space import instantiate_estimator
from repro.ml.impute import IterativeImputer, KNNImputer, SimpleImputer
from repro.ml.model_selection import DegenerateFoldWarning, FitFailedWarning, cross_val_f1
from repro.ml.preprocessing import (
    MinMaxScaler,
    RobustScaler,
    StandardScaler,
    log_transform,
    sqrt_transform,
)
from repro.parallel import JobExecutor

#: Fidelity levels a score may have been computed at.
SCREEN, FULL = "screen", "full"

_TRANSFORMER_CLASSES = {
    "sklearn.impute.SimpleImputer": SimpleImputer,
    "sklearn.impute.KNNImputer": KNNImputer,
    "sklearn.impute.IterativeImputer": IterativeImputer,
    "sklearn.preprocessing.StandardScaler": StandardScaler,
    "sklearn.preprocessing.MinMaxScaler": MinMaxScaler,
    "sklearn.preprocessing.RobustScaler": RobustScaler,
}

_FEATURE_FUNCTIONS = {
    "numpy.log1p": log_transform,
    "numpy.sqrt": sqrt_transform,
}


def genome_seed(base_seed: int, genome_hash: str) -> int:
    """A per-genome RNG seed stable across processes and backends."""
    digest = hashlib.sha256(f"{base_seed}:{genome_hash}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % (2**31 - 1)


def execute_plan(
    plan: Dict[str, Any], X: np.ndarray, y: Sequence, cv: int, seed: int
) -> float:
    """Train/score one genome plan with cross-validated F1.

    Transformer nodes run as a feature program: each consumes the column-wise
    concatenation of its parents' outputs (the raw matrix for ``input``) and
    emits a transformed matrix; the estimator trains on the concatenation of
    *its* parents.  Transformers here are stateless-enough (scalers/imputers
    fit on the fold's train split implicitly via cross_val's estimator clone)
    — the whole program is wrapped in one estimator-shaped object so
    ``cross_val_f1`` clones and refits it per fold without leakage.
    """
    pipeline = GenomePipeline(plan=plan, random_state=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFoldWarning)
        try:
            return float(cross_val_f1(pipeline, X, y, cv=cv, random_state=seed))
        except Exception as error:  # noqa: BLE001 — the search outlives a broken plan
            warnings.warn(FitFailedWarning(None, repr(error)), stacklevel=2)
            return 0.0


class GenomePipeline:
    """An estimator-shaped wrapper executing a genome plan.

    Implements the ``fit`` / ``predict`` / ``get_params`` surface that
    :func:`~repro.ml.model_selection.cross_val_score` needs (including
    ``clone`` via the kwargs-mirror convention of ``repro.ml.base``), so the
    whole DAG refits inside each fold.
    """

    def __init__(self, plan: Optional[Dict[str, Any]] = None, random_state: int = 0):
        self.plan = plan
        self.random_state = random_state
        self._fitted: Dict[str, Any] = {}
        self._estimator = None

    @classmethod
    def _param_names(cls) -> List[str]:
        return ["plan", "random_state"]

    def get_params(self) -> Dict[str, Any]:
        return {"plan": self.plan, "random_state": self.random_state}

    def set_params(self, **params: Any) -> "GenomePipeline":
        for key, value in params.items():
            setattr(self, key, value)
        return self

    def _node_input(self, node_id: str, outputs: Dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
        parts = [
            X if parent == INPUT_NODE else outputs[parent]
            for parent in self.plan["parents"][node_id]
        ]
        return parts[0] if len(parts) == 1 else np.hstack(parts)

    def fit(self, X, y) -> "GenomePipeline":
        X = np.asarray(X, dtype=float)
        self._fitted = {}
        self._estimator = None
        outputs: Dict[str, np.ndarray] = {}
        for node_id in self.plan["order"]:
            payload = self.plan["nodes"][node_id]
            operation, params = payload["operation"], payload["params"]
            matrix = self._node_input(node_id, outputs, X)
            if operation in _TRANSFORMER_CLASSES:
                transformer = _TRANSFORMER_CLASSES[operation](**params)
                outputs[node_id] = np.asarray(transformer.fit_transform(matrix), dtype=float)
                self._fitted[node_id] = transformer
            elif operation in _FEATURE_FUNCTIONS:
                outputs[node_id] = np.asarray(_FEATURE_FUNCTIONS[operation](matrix), dtype=float)
            else:
                configuration = dict(params)
                configuration.setdefault("random_state", self.random_state)
                self._estimator = instantiate_estimator(operation, configuration)
                self._estimator.fit(matrix, y)
        if self._estimator is None:
            raise ValueError("plan has no estimator node")
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        outputs: Dict[str, np.ndarray] = {}
        for node_id in self.plan["order"]:
            payload = self.plan["nodes"][node_id]
            operation = payload["operation"]
            matrix = self._node_input(node_id, outputs, X)
            if operation in _TRANSFORMER_CLASSES:
                outputs[node_id] = np.asarray(self._fitted[node_id].transform(matrix), dtype=float)
            elif operation in _FEATURE_FUNCTIONS:
                outputs[node_id] = np.asarray(_FEATURE_FUNCTIONS[operation](matrix), dtype=float)
            else:
                return self._estimator.predict(matrix)
        raise ValueError("plan has no estimator node")  # pragma: no cover


# ----------------------------------------------------------- worker machinery
#: Per-worker dataset state installed once by the executor's initializer
#: (loaded per process on the ``processes`` backend, once in-process on
#: ``serial`` / ``threads``) instead of shipping X/y with every job.
_WORKER_DATA: Dict[str, Any] = {}


def _install_worker_data(
    X: np.ndarray, y: np.ndarray, screen_rows: np.ndarray, cv: int, screen_cv: int
) -> None:
    _WORKER_DATA["X"] = X
    _WORKER_DATA["y"] = y
    _WORKER_DATA["screen_rows"] = screen_rows
    _WORKER_DATA["cv"] = cv
    _WORKER_DATA["screen_cv"] = screen_cv


def _evaluate_job(job: Tuple[Dict[str, Any], str, int]) -> float:
    """One fitness evaluation: ``(plan, fidelity, seed) -> score``."""
    plan, fidelity, seed = job
    X, y = _WORKER_DATA["X"], _WORKER_DATA["y"]
    if fidelity == SCREEN:
        rows = _WORKER_DATA["screen_rows"]
        return execute_plan(plan, X[rows], y[rows], cv=_WORKER_DATA["screen_cv"], seed=seed)
    return execute_plan(plan, X, y, cv=_WORKER_DATA["cv"], seed=seed)


# -------------------------------------------------------------------- caching
@dataclass
class FitnessCache:
    """Genome-hash-keyed score memo shared by every search strategy.

    ``hits``/``misses`` make cache effectiveness a first-class benchmark
    metric; the budgeted random search and the evolutionary loop both write
    through this cache, so a configuration either strategy has already paid
    for is never evaluated twice.
    """

    scores: Dict[Tuple[str, str], float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, genome_hash: str, fidelity: str) -> Optional[float]:
        key = (genome_hash, fidelity)
        if key in self.scores:
            self.hits += 1
            return self.scores[key]
        return None

    def put(self, genome_hash: str, fidelity: str, score: float) -> None:
        self.scores[(genome_hash, fidelity)] = score
        self.misses += 1

    def best_full(self) -> Optional[Tuple[str, float]]:
        """``(genome_hash, score)`` of the best full-fidelity entry."""
        full = [
            (score, genome_hash)
            for (genome_hash, fidelity), score in self.scores.items()
            if fidelity == FULL
        ]
        if not full:
            return None
        score, genome_hash = max(full, key=lambda item: (item[0], item[1]))
        return genome_hash, score

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.scores)}


@dataclass
class FidelityStats:
    """Multi-fidelity accounting reported by the benchmark."""

    screen_evaluations: int = 0
    full_evaluations: int = 0
    promotions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "screen_evaluations": self.screen_evaluations,
            "full_evaluations": self.full_evaluations,
            "promotions": self.promotions,
        }


class FitnessEvaluator:
    """Evaluates genome populations with screening, memoization and fan-out."""

    def __init__(
        self,
        X: np.ndarray,
        y: Sequence,
        cv: int = 3,
        random_state: int = 0,
        executor: Optional[JobExecutor] = None,
        cache: Optional[FitnessCache] = None,
        subsample: float = 0.4,
        min_screen_rows: int = 48,
        promote_top_k: int = 3,
        max_spend: Optional[float] = None,
    ):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(list(y))
        self.cv = cv
        self.screen_cv = min(cv, 2)
        self.random_state = random_state
        self.executor = executor or JobExecutor()
        self.cache = cache or FitnessCache()
        self.promote_top_k = promote_top_k
        self.stats = FidelityStats()
        self.screen_rows = self._screen_rows(subsample, min_screen_rows)
        #: Cost (in full-evaluation units) charged per screen evaluation.
        self.screen_cost = (
            len(self.screen_rows) / len(self.y) if len(self.y) else 1.0
        )
        self.spent = 0.0
        #: Hard spend ceiling in cost units: job fan-out is truncated so
        #: ``spent`` never exceeds it (the equal-budget guarantee against the
        #: random baseline).  ``None`` = unbounded.
        self.max_spend = max_spend

    def _screen_rows(self, subsample: float, min_rows: int) -> np.ndarray:
        """A deterministic stratified subsample shared by every screen eval."""
        n = len(self.y)
        take_total = min(n, max(min_rows, int(round(subsample * n))))
        rng = np.random.RandomState(self.random_state)
        selected: List[int] = []
        for label in np.unique(self.y):
            label_rows = np.where(self.y == label)[0]
            rng.shuffle(label_rows)
            take = max(2, int(round(take_total * len(label_rows) / n)))
            selected.extend(label_rows[:take].tolist())
        return np.sort(np.asarray(selected[:take_total], dtype=int))

    # ------------------------------------------------------------------ mapping
    def _map(self, jobs: List[Tuple[Dict[str, Any], str, int]]) -> List[float]:
        return self.executor.map(
            _evaluate_job,
            jobs,
            initializer=_install_worker_data,
            initargs=(self.X, self.y, self.screen_rows, self.cv, self.screen_cv),
            chunksize=1,
        )

    def _evaluate_at(self, genomes: List[PipelineGenome], fidelity: str) -> Dict[str, float]:
        """Evaluate the *uncached* genomes at one fidelity; returns hash->score."""
        scores: Dict[str, float] = {}
        pending: List[PipelineGenome] = []
        seen: set = set()
        for genome in genomes:
            genome_hash = genome.genome_hash
            if genome_hash in scores or genome_hash in seen:
                continue
            cached = self.cache.get(genome_hash, fidelity)
            if cached is not None:
                scores[genome_hash] = cached
            else:
                seen.add(genome_hash)
                pending.append(genome)
        if pending and self.max_spend is not None:
            # Truncate the fan-out so the spend ceiling is never overdrawn;
            # truncated genomes simply stay unscored this round.
            cost = self.screen_cost if fidelity == SCREEN else 1.0
            allowed = int(max(0.0, np.floor((self.max_spend - self.spent) / cost + 1e-9)))
            pending = pending[:allowed]
        if pending:
            jobs = [
                (
                    genome.to_plan(),
                    fidelity,
                    genome_seed(self.random_state, genome.genome_hash),
                )
                for genome in pending
            ]
            results = self._map(jobs)
            for genome, score in zip(pending, results):
                self.cache.put(genome.genome_hash, fidelity, float(score))
                scores[genome.genome_hash] = float(score)
                if fidelity == SCREEN:
                    self.stats.screen_evaluations += 1
                    self.spent += self.screen_cost
                else:
                    self.stats.full_evaluations += 1
                    self.spent += 1.0
        return scores

    def evaluate_population(self, genomes: List[PipelineGenome]) -> Dict[str, float]:
        """Screen every genome, promote the top-k to full fidelity.

        Returns ``genome_hash -> fitness`` where fitness is the full-fidelity
        score for promoted genomes and the screen score otherwise (successive
        -halving-style rung scores: comparable enough for selection, while
        the *best* genome is always tracked on full fidelity only).
        """
        screen_scores = self._evaluate_at(genomes, SCREEN)
        by_hash: Dict[str, PipelineGenome] = {g.genome_hash: g for g in genomes}
        ranked = sorted(
            screen_scores.items(), key=lambda item: (-item[1], item[0])
        )
        promoted_hashes = [genome_hash for genome_hash, _ in ranked[: self.promote_top_k]]
        promote = [by_hash[h] for h in promoted_hashes if h in by_hash]
        fresh = {
            g.genome_hash for g in promote if self.cache.get(g.genome_hash, FULL) is None
        }
        # get() above counts a hit per already-promoted genome; that is fair —
        # the memo really did save a full evaluation.
        full_scores = self._evaluate_at(promote, FULL)
        # Only promotions that actually ran count (the spend ceiling may have
        # truncated the tail of the promote list).
        self.stats.promotions += len(fresh & set(full_scores))
        fitness = dict(screen_scores)
        fitness.update(full_scores)
        return fitness

    def promote_screened(self, genomes: List[PipelineGenome]) -> Dict[str, float]:
        """Full-fidelity evaluation of already-screened genomes (budget mop-up).

        Counts as promotions only the genomes that actually ran (the spend
        ceiling may truncate the tail of the batch).
        """
        fresh = {
            g.genome_hash
            for g in genomes
            if (g.genome_hash, FULL) not in self.cache.scores
        }
        full_scores = self._evaluate_at(genomes, FULL)
        self.stats.promotions += len(fresh & set(full_scores))
        return full_scores

    def evaluate_full(self, genome: PipelineGenome) -> float:
        """One full-fidelity evaluation through the cache (random search path)."""
        return self._evaluate_at([genome], FULL).get(genome.genome_hash, 0.0)
