"""The Pipeline Abstraction component (Algorithm 1).

:class:`PipelineAbstractor` combines static code analysis, documentation
analysis and dataset-usage analysis into an :class:`AbstractedPipeline` per
script, plus the shared library hierarchy contributed by all scripts.  The
output feeds KG construction (:mod:`repro.kg.pipeline_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.parallel import JobExecutor
from repro.pipelines.dataset_usage import annotate_statement, split_dataset_and_table
from repro.pipelines.docs import LibraryDocumentation
from repro.pipelines.static_analysis import Statement, StaticCodeAnalyzer


@dataclass
class PipelineScript:
    """A pipeline script plus its portal metadata (``MD`` in Algorithm 1)."""

    pipeline_id: str
    source_code: str
    dataset_name: Optional[str] = None
    author: str = "unknown"
    votes: int = 0
    score: Optional[float] = None
    task: Optional[str] = None  # e.g. "classification" / "regression"
    date: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "pipeline_id": self.pipeline_id,
            "source_code": self.source_code,
            "dataset_name": self.dataset_name,
            "author": self.author,
            "votes": self.votes,
            "score": self.score,
            "task": self.task,
            "date": self.date,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineScript":
        return cls(**payload)


@dataclass
class AbstractedPipeline:
    """The abstraction of one pipeline script (one named graph's worth)."""

    script: PipelineScript
    #: The abstracted statements; empty once the governor has written the
    #: pipeline's named graph from them (they are never saved).
    statements: List[Statement] = field(default_factory=list)
    #: Libraries called anywhere in the pipeline (root library names).
    libraries_used: Set[str] = field(default_factory=set)
    #: Fully-qualified callables invoked by the pipeline.
    calls_used: Set[str] = field(default_factory=set)
    #: Predicted table reads as ``(dataset or None, table name)``.
    predicted_table_reads: List[Tuple[Optional[str], str]] = field(default_factory=list)
    #: Predicted column reads (unverified; the Graph Linker prunes them).
    predicted_column_reads: List[str] = field(default_factory=list)

    @property
    def pipeline_id(self) -> str:
        return self.script.pipeline_id

    def to_dict(self) -> Dict:
        """JSON-serializable form without ``statements`` (``pipelines.json``).

        The statements are only read to write a fresh pipeline's named graph;
        once that graph exists, re-adds compare ``script.source_code`` and the
        library graph and linker read the fields kept here, so
        ``KGGovernor.add_pipelines`` drops them and ``KGGovernor.save``
        persists this form.
        """
        return {
            "script": self.script.to_dict(),
            "libraries_used": sorted(self.libraries_used),
            "calls_used": sorted(self.calls_used),
            "predicted_table_reads": [list(read) for read in self.predicted_table_reads],
            "predicted_column_reads": list(self.predicted_column_reads),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "AbstractedPipeline":
        """Inverse of :meth:`to_dict`; a format-1 entry's ``statements`` are ignored."""
        return cls(
            script=PipelineScript.from_dict(payload["script"]),
            libraries_used=set(payload["libraries_used"]),
            calls_used=set(payload["calls_used"]),
            predicted_table_reads=[
                (dataset, table) for dataset, table in payload["predicted_table_reads"]
            ],
            predicted_column_reads=list(payload["predicted_column_reads"]),
        )


class PipelineAbstractor:
    """Runs Algorithm 1 over a collection of pipeline scripts."""

    def __init__(
        self,
        documentation: Optional[LibraryDocumentation] = None,
        executor: Optional[JobExecutor] = None,
    ):
        self.documentation = documentation or LibraryDocumentation()
        self.analyzer = StaticCodeAnalyzer()
        self.executor = executor or JobExecutor()
        #: ``(child, parent)`` edges of the library hierarchy accumulated so far.
        self.library_hierarchy: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------- API
    def abstract_script(self, script: PipelineScript) -> AbstractedPipeline:
        """Abstract a single pipeline script (the parallel worker of Algorithm 1)."""
        statements, aliases = self.analyzer.analyze_with_aliases(script.source_code)
        imported_roots = {target.split(".")[0] for target in aliases.values()}
        abstraction = AbstractedPipeline(script=script)
        for statement in statements:
            statement = self.documentation.enrich_statement(statement)
            statement = annotate_statement(statement)
            abstraction.statements.append(statement)
            for call in statement.calls:
                is_library_call = call.library in imported_roots or call.full_name in self.documentation.docs
                if "." in call.full_name and is_library_call:
                    abstraction.libraries_used.add(call.full_name.split(".")[0])
                    abstraction.calls_used.add(call.full_name)
                    for edge in self.documentation.hierarchy_edges(call.full_name):
                        self.library_hierarchy.add(edge)
            for path in statement.dataset_reads:
                dataset, table = split_dataset_and_table(path)
                abstraction.predicted_table_reads.append((dataset or script.dataset_name, table))
            abstraction.predicted_column_reads.extend(statement.column_reads)
        return abstraction

    def abstract_scripts(self, scripts: Sequence[PipelineScript]) -> List[AbstractedPipeline]:
        """Abstract a collection of scripts as independent jobs."""
        return self.executor.map(self.abstract_script, list(scripts))

    # --------------------------------------------------------------- reports
    def library_hierarchy_edges(self) -> List[Tuple[str, str]]:
        """All accumulated ``(child, parent)`` library hierarchy edges."""
        return sorted(self.library_hierarchy)

    @staticmethod
    def library_usage_counts(abstractions: Sequence[AbstractedPipeline]) -> Dict[str, int]:
        """Number of distinct pipelines calling each root library (Figure 4)."""
        counts: Dict[str, int] = {}
        for abstraction in abstractions:
            for library in abstraction.libraries_used:
                counts[library] = counts.get(library, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: -item[1]))
