"""N-Triples / N-Quads serialization and parsing for the quad store."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.rdf.store import DEFAULT_GRAPH, QuadStore
from repro.rdf.terms import Triple, URIRef, iter_terms, term_n3

PathLike = Union[str, Path]


def serialize_nquads(store: QuadStore) -> str:
    """Serialize the whole store as N-Quads (default-graph triples omit the graph)."""
    lines: List[str] = []
    for graph in store.graphs():
        for triple in store.triples(graph=graph):
            subject = term_n3(triple.subject)
            predicate = term_n3(triple.predicate)
            obj = term_n3(triple.object)
            if graph == DEFAULT_GRAPH:
                lines.append(f"{subject} {predicate} {obj} .")
            else:
                lines.append(f"{subject} {predicate} {obj} {term_n3(graph)} .")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def save_nquads(store: QuadStore, path: PathLike) -> Path:
    """Write the store to an ``.nq`` file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_nquads(store), encoding="utf-8")
    return path


def parse_nquads_line(line: str) -> Optional[Tuple[Triple, URIRef]]:
    """Parse one N-Quads line into ``(triple, graph)``; comments/blank -> ``None``."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if stripped.endswith("."):
        stripped = stripped[:-1].strip()
    terms = list(iter_terms(stripped))
    if len(terms) == 3:
        return Triple(terms[0], terms[1], terms[2]), DEFAULT_GRAPH
    if len(terms) == 4:
        graph = terms[3]
        if not isinstance(graph, URIRef):
            raise ValueError(f"graph name must be a URI: {line!r}")
        return Triple(terms[0], terms[1], terms[2]), graph
    raise ValueError(f"expected 3 or 4 terms, got {len(terms)}: {line!r}")


def parse_nquads(text: str, store: Optional[QuadStore] = None) -> QuadStore:
    """Parse N-Quads text into a (new or provided) quad store, as one write batch.

    A malformed line raises ``ValueError`` and leaves the store as it was.
    """
    store = store or QuadStore()
    with store.write_batch():
        for line in text.splitlines():
            parsed = parse_nquads_line(line)
            if parsed is not None:
                triple, graph = parsed
                store.add(triple.subject, triple.predicate, triple.object, graph=graph)
    return store


def load_nquads(path: PathLike, store: Optional[QuadStore] = None) -> QuadStore:
    """Load an ``.nq`` file into a quad store."""
    return parse_nquads(Path(path).read_text(encoding="utf-8"), store=store)
