"""KG priors: seeding and biasing the evolutionary search from the LiDS graph.

The governed pipeline graph records, for every abstracted pipeline, which
functions its statements call (imputers, scalers, ``numpy`` feature ops,
estimators) and which hyperparameter name/value pairs those calls passed —
weighted by the pipeline's votes.  :class:`PriorBook` distils that into

* per-stage **operation weights** (how often experienced users reached for
  each imputer / scaler / transform / estimator),
* per-operation **hyperparameter value weights** (which concrete values they
  passed),

and uses them to sample the initial population and to bias the add / replace
/ perturb mutation operators.  Harvesting runs plain SPARQL through whatever
``.query(...)`` surface it is handed — a live :class:`~repro.interfaces.api.
LiDSClient`, a read-only client over a saved governor directory, a remote
replica client, or raw :class:`~repro.kg.storage.KGLiDSStorage` — so priors
work wherever the graph is served from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automl.evolution.genome import (
    INPUT_NODE,
    OPERATION_REGISTRY,
    STAGES,
    PipelineGenome,
    operations_for_stage,
)
from repro.kg.ontology import library_uri

#: Per-stage probability that a sampled genome includes that transformer
#: stage at all (the estimator stage is always present).
STAGE_INCLUSION = {"imputation": 0.5, "preprocessing": 0.7, "feature": 0.4}

#: Probability that a second, branching feature node is added when the
#: feature stage is present (this is what makes sampled genomes DAGs rather
#: than chains).
BRANCH_PROBABILITY = 0.25

_USAGE_QUERY = """
SELECT ?call (COUNT(?s) AS ?uses) WHERE {
  GRAPH ?g {
    ?s kglids:callsFunction ?call .
  }
}
GROUP BY ?call
"""

_VOTES_QUERY = """
SELECT ?call (SUM(?votes) AS ?votes) WHERE {
  GRAPH ?g {
    ?s kglids:callsFunction ?call .
    ?s kglids:isPartOf ?pipeline .
    ?pipeline kglids:hasVotes ?votes .
  }
}
GROUP BY ?call
"""

_PARAMETER_QUERY = """
SELECT ?call ?pname ?pvalue (COUNT(?s) AS ?uses) WHERE {
  GRAPH ?g {
    ?s kglids:callsFunction ?call .
    ?s kglids:hasParameter ?param .
    ?param kglids:hasName ?pname .
    ?param kglids:hasParameterValue ?pvalue .
  }
}
GROUP BY ?call ?pname ?pvalue
"""


def _result_rows(result: Any) -> List[Dict[str, Any]]:
    """Normalize a query result to ``list[dict]`` across client surfaces.

    ``KGLiDSStorage.query`` returns a ``SelectResult`` (``.rows``);
    ``LiDSClient.query`` returns a :class:`~repro.tabular.Table`.
    """
    if hasattr(result, "rows"):
        return list(result.rows)
    if hasattr(result, "row") and hasattr(result, "num_rows"):
        return [result.row(i) for i in range(result.num_rows)]
    return list(result)


def _plain(value: Any) -> Any:
    """A python value from a SPARQL binding (Literal / URIRef / plain)."""
    to_python = getattr(value, "to_python", None)
    if callable(to_python):
        return to_python()
    return value


def _parse_recorded_value(recorded: str) -> Any:
    try:
        return ast.literal_eval(recorded)
    except (ValueError, SyntaxError):
        return recorded


@dataclass
class PriorBook:
    """Operation and hyperparameter weights mined from the pipeline graph."""

    #: ``stage -> {operation name -> weight}`` (all registered operations
    #: present; unobserved operations keep a uniform floor weight).
    operation_weights: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``(operation, parameter) -> {recorded value -> weight}``.
    value_weights: Dict[Tuple[str, str], Dict[Any, float]] = field(default_factory=dict)
    #: Probability that a prior-guided draw consults the weights at all
    #: (the remainder stays uniform, preserving exploration).
    prior_probability: float = 0.6
    #: Whether any usage evidence was actually found in the graph.
    informed: bool = False

    # ------------------------------------------------------------ construction
    @classmethod
    def uniform(cls) -> "PriorBook":
        """The uninformed book: every registered operation equally likely."""
        book = cls()
        for stage in STAGES:
            names = operations_for_stage(stage)
            book.operation_weights[stage] = {name: 1.0 for name in names}
        return book

    @classmethod
    def from_client(
        cls, client: Any, prior_probability: float = 0.6
    ) -> "PriorBook":
        """Harvest priors by SPARQL from any ``.query(...)`` surface.

        Falls back to the uniform book when the graph holds no pipelines (or
        the queries fail — e.g. an empty storage without graphs).
        """
        book = cls.uniform()
        book.prior_probability = prior_probability
        uri_to_operation = {
            str(library_uri(name)): name for name in OPERATION_REGISTRY
        }
        try:
            usage_rows = _result_rows(client.query(_USAGE_QUERY))
            votes_rows = _result_rows(client.query(_VOTES_QUERY))
            parameter_rows = _result_rows(client.query(_PARAMETER_QUERY))
        except Exception:
            return book
        votes_by_call: Dict[str, float] = {}
        for row in votes_rows:
            call = str(row.get("call"))
            votes = _plain(row.get("votes"))
            if call in uri_to_operation and votes is not None:
                votes_by_call[call] = float(votes)
        observed = False
        for row in usage_rows:
            call = str(row.get("call"))
            operation = uri_to_operation.get(call)
            if operation is None:
                continue
            uses = float(_plain(row.get("uses")) or 0.0)
            if uses <= 0:
                continue
            observed = True
            stage = OPERATION_REGISTRY[operation].stage
            # Usage count plus vote mass: a rarely-used but highly-voted
            # estimator still earns prior weight, mirroring the KGpip
            # "top-voted pipelines" recommendation signal.
            weight = uses + 0.01 * votes_by_call.get(call, 0.0)
            book.operation_weights[stage][operation] = (
                book.operation_weights[stage].get(operation, 1.0) + weight
            )
        for row in parameter_rows:
            call = str(row.get("call"))
            operation = uri_to_operation.get(call)
            if operation is None:
                continue
            name = str(_plain(row.get("pname")))
            spec = OPERATION_REGISTRY[operation]
            if name not in spec.params:
                continue
            value = _parse_recorded_value(str(_plain(row.get("pvalue"))))
            uses = float(_plain(row.get("uses")) or 0.0)
            bucket = book.value_weights.setdefault((operation, name), {})
            try:
                bucket[value] = bucket.get(value, 0.0) + uses
            except TypeError:  # unhashable recorded value
                continue
        book.informed = observed
        return book

    def copy(self) -> "PriorBook":
        """An independent book: weights folded into it leave this one unchanged.

        Every weight dict keeps its insertion order, which the seeded
        ``rng.choice`` draws depend on.
        """
        return replace(
            self,
            operation_weights={stage: dict(w) for stage, w in self.operation_weights.items()},
            value_weights={key: dict(w) for key, w in self.value_weights.items()},
        )

    # ----------------------------------------------------------------- drawing
    def choose_operation(self, rng: np.random.RandomState, stage: str) -> str:
        """A weighted operation draw for one stage (uniform floor retained)."""
        names = operations_for_stage(stage)
        if rng.rand() >= self.prior_probability:
            return names[rng.randint(len(names))]
        weights = np.array(
            [self.operation_weights.get(stage, {}).get(name, 1.0) for name in names],
            dtype=float,
        )
        weights /= weights.sum()
        return names[int(rng.choice(len(names), p=weights))]

    def choose_param_value(
        self, rng: np.random.RandomState, operation: str, param: str
    ) -> Any:
        """A hyperparameter value draw: recorded values first, space otherwise.

        Recorded values outside the typed candidate list are snapped to the
        nearest in-space candidate (numerics) or dropped (categoricals), so
        mined Kaggle values never produce an out-of-space genome.
        """
        spec = OPERATION_REGISTRY[operation]
        candidates = list(spec.params[param])
        recorded = self.value_weights.get((operation, param))
        if recorded and rng.rand() < self.prior_probability:
            values = list(recorded)
            weights = np.array([recorded[value] for value in values], dtype=float)
            weights /= weights.sum()
            drawn = values[int(rng.choice(len(values), p=weights))]
            snapped = _snap_to_candidates(drawn, candidates)
            if snapped is not None:
                return snapped
        return candidates[rng.randint(len(candidates))]

    def estimator_ranking(self) -> List[str]:
        """Estimator names by descending prior weight (benchmark telemetry)."""
        weights = self.operation_weights.get("estimator", {})
        return sorted(weights, key=lambda name: (-weights[name], name))

    # ---------------------------------------------------------------- sampling
    def sample_params(
        self, rng: np.random.RandomState, operation: str
    ) -> Dict[str, Any]:
        spec = OPERATION_REGISTRY[operation]
        return {
            param: self.choose_param_value(rng, operation, param)
            for param in spec.params
        }

    def sample_genome(self, rng: np.random.RandomState) -> PipelineGenome:
        """One prior-guided pipeline genome (chain, occasionally branched)."""
        genome = PipelineGenome()
        tail = INPUT_NODE
        feature_parent = None
        for stage in ("imputation", "preprocessing", "feature"):
            if rng.rand() >= STAGE_INCLUSION[stage]:
                continue
            operation = self.choose_operation(rng, stage)
            node_id = genome.add_node(
                operation, params=self.sample_params(rng, operation), parents=[tail]
            )
            if stage == "feature":
                feature_parent = tail
            tail = node_id
        estimator = self.choose_operation(rng, "estimator")
        sink = genome.add_node(
            estimator, params=self.sample_params(rng, estimator), parents=[tail]
        )
        # Occasionally branch: a second feature transform off the same parent,
        # concatenated into the estimator alongside the main chain.
        if feature_parent is not None and rng.rand() < BRANCH_PROBABILITY:
            options = operations_for_stage("feature")
            branch_op = options[rng.randint(len(options))]
            branch = genome.add_node(branch_op, parents=[feature_parent])
            genome.connect(branch, sink)
        genome.validate()
        return genome

    def sample_population(
        self, rng: np.random.RandomState, size: int
    ) -> List[PipelineGenome]:
        """``size`` genomes: prior-top bare estimators first, pipelines after.

        The first slots hold single-estimator genomes over the prior-ranked
        estimators — the very candidates KGpip recommends — so the search
        starts from the random baseline's strongest configurations and
        explores pipeline structure *around* them rather than from scratch.
        Duplicates collapse in the fitness cache.
        """
        ranking = self.estimator_ranking()
        seeds = min(len(ranking), max(1, size // 3))
        population: List[PipelineGenome] = [
            PipelineGenome.single_estimator(name, self.sample_params(rng, name))
            for name in ranking[:seeds]
        ]
        population.extend(self.sample_genome(rng) for _ in range(size - seeds))
        return population


def _snap_to_candidates(value: Any, candidates: Sequence[Any]) -> Optional[Any]:
    """Snap a mined value into the typed candidate list, or ``None``."""
    if value in candidates:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numeric = [c for c in candidates if isinstance(c, (int, float)) and not isinstance(c, bool)]
        if numeric:
            return min(numeric, key=lambda c: (abs(float(c) - float(value)), float(c)))
    return None
