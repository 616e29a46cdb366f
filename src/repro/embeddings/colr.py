"""CoLR: column learned representations.

The paper (Section 3.2) trains, per fine-grained data type, a neural network
``h_theta`` that maps a single cell value to a 300-dimensional vector; the
embedding of a column is the average of ``h_theta`` over a 10% sample of its
values, and the embedding of a table concatenates the per-type averages of
its column embeddings (Eq. 1).

The reproduction keeps that architecture: a hand-crafted value featurizer per
type feeds a small two-layer MLP.  Models can be used with deterministic
"pre-trained" weights (a fixed random projection, which already preserves the
"similar value distributions => nearby embeddings" property the platform
relies on) or trained on column pairs with binary cross-entropy via
:mod:`repro.embeddings.training`, which is what the ablation benchmarks do.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.types import COLR_TYPES, TYPE_DATE, TYPE_FLOAT, TYPE_INT

#: Dimensionality of CoLR column embeddings (the paper uses 300).
COLR_DIMENSIONS = 300
#: Dimensionality of the hand-crafted value features fed to the MLP.
VALUE_FEATURE_DIMENSIONS = 64

_YEAR_RE = re.compile(r"(19|20)\d{2}")
_DIGIT_RE = re.compile(r"\d")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity mapped to ``[0, 1]`` (0.5 means orthogonal)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    cosine = float(np.dot(a, b) / (norm_a * norm_b))
    return max(0.0, min(1.0, (cosine + 1.0) / 2.0))


# --------------------------------------------------------------------------
# Value featurizers
# --------------------------------------------------------------------------
@functools.cache
def _hash_bucket(text: str, buckets: int, salt: str) -> int:
    """md5-defined bucket of an n-gram; a pure function over the data's 2/3-gram
    alphabet, so it is computed once per gram and the memo is never dropped."""
    digest = hashlib.md5(f"{salt}:{text}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % buckets


def numeric_value_features(value: float) -> np.ndarray:
    """Distribution-describing features of a numeric cell value."""
    features = np.zeros(VALUE_FEATURE_DIMENSIONS)
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return features
    # An infinite cell reads as the largest finite one of its sign.
    value = max(-sys.float_info.max, min(float(value), sys.float_info.max))
    magnitude = math.log1p(abs(value))
    features[0] = math.copysign(1.0, value) if value != 0 else 0.0
    features[1] = magnitude
    features[2] = magnitude**2 / 10.0
    features[3] = value / (1.0 + abs(value))
    features[4] = abs(value) % 1.0
    features[5] = 1.0 if float(value).is_integer() else 0.0
    features[6] = len(str(int(abs(value)))) / 10.0 if abs(value) >= 1 else 0.0
    features[7] = 1.0 if 0.0 <= value <= 1.0 else 0.0
    features[8] = 1.0 if 1900 <= value <= 2100 else 0.0
    features[9] = 1.0 if value < 0 else 0.0
    # Multi-frequency encoding of the log-magnitude: columns whose value
    # scales differ even moderately land on different phases, which is what
    # gives the averaged column embedding its discriminative power.
    for k, frequency in enumerate((0.5, 1.0, 2.0, 4.0, 8.0)):
        features[10 + 2 * k] = math.sin(frequency * magnitude)
        features[11 + 2 * k] = math.cos(frequency * magnitude)
    # Fine-grained magnitude buckets with linear interpolation between the two
    # nearest buckets (soft one-hot over log-magnitude, 24 buckets of 0.5).
    position = min(23.0, magnitude * 2.0)
    lower = int(position)
    fraction = position - lower
    features[20 + lower] = 1.0 - fraction
    if lower + 1 <= 23:
        features[20 + lower + 1] = fraction
    # Leading-digit distribution (Benford-style signal).
    leading = str(abs(value)).lstrip("0.").replace(".", "")
    if leading:
        features[44 + min(9, int(leading[0]))] = 1.0
    # Value sign/fraction interactions in the remaining slots.
    features[54] = math.sin(value / (1.0 + abs(value)) * math.pi)
    features[55] = float(abs(value) % 10) / 10.0
    return features


def string_value_features(value: str, salt: str = "string") -> np.ndarray:
    """Character-shape and hashed n-gram features of a string cell value."""
    features = np.zeros(VALUE_FEATURE_DIMENSIONS)
    text = str(value)
    if not text:
        return features
    length = len(text)
    tokens = text.split()
    digits = len(_DIGIT_RE.findall(text))
    features[0] = min(1.0, length / 50.0)
    features[1] = min(1.0, len(tokens) / 20.0)
    features[2] = digits / length
    features[3] = sum(1 for c in text if c.isupper()) / length
    features[4] = sum(1 for c in text if c.isalpha()) / length
    features[5] = sum(1 for c in text if not c.isalnum() and not c.isspace()) / length
    features[6] = 1.0 if text.istitle() else 0.0
    features[7] = 1.0 if text.isupper() else 0.0
    padded = f"<{text.lower()}>"
    buckets = VALUE_FEATURE_DIMENSIONS - 8
    # Occurrence counts are small integers, exact in float whatever the order.
    counts = [0.0] * buckets
    for n in (2, 3):
        for i in range(max(0, len(padded) - n + 1)):
            counts[_hash_bucket(padded[i : i + n], buckets, salt)] += 1.0
    features[8:] = counts
    gram_part = features[8:]
    norm = np.linalg.norm(gram_part)
    if norm > 0:
        features[8:] = gram_part / norm
    return features


def date_value_features(value: str) -> np.ndarray:
    """Features for date-like values: year, month/day structure, separators."""
    features = np.zeros(VALUE_FEATURE_DIMENSIONS)
    text = str(value)
    year_match = _YEAR_RE.search(text)
    if year_match:
        year = int(year_match.group(0))
        features[0] = (year - 1900) / 200.0
        features[1] = 1.0
    numbers = [int(n) for n in re.findall(r"\d+", text)]
    if numbers:
        features[2] = min(1.0, len(numbers) / 6.0)
        features[3] = min(numbers) / 60.0 if numbers else 0.0
        features[4] = max(numbers) / 3000.0
    features[5] = 1.0 if "-" in text else 0.0
    features[6] = 1.0 if "/" in text else 0.0
    features[7] = 1.0 if ":" in text else 0.0
    features[8] = min(1.0, len(text) / 30.0)
    shape_features = string_value_features(text, salt="date")
    features[9:] = shape_features[9:]
    return features


def featurize_value(value: Any, fine_grained_type: str) -> np.ndarray:
    """Dispatch to the featurizer for the value's fine-grained type."""
    if fine_grained_type in (TYPE_INT, TYPE_FLOAT):
        try:
            return numeric_value_features(float(value))
        except (TypeError, ValueError):
            return np.zeros(VALUE_FEATURE_DIMENSIONS)
    if fine_grained_type == TYPE_DATE:
        return date_value_features(value)
    return string_value_features(value, salt=fine_grained_type)


# --------------------------------------------------------------------------
# The CoLR model
# --------------------------------------------------------------------------
class ColRModel:
    """A two-layer MLP mapping value features to a CoLR embedding.

    ``forward`` embeds a single value; ``embed_column`` averages over a value
    sample, exactly like lines 8-10 of Algorithm 2.
    """

    def __init__(
        self,
        fine_grained_type: str,
        dimensions: int = COLR_DIMENSIONS,
        hidden: int = 128,
        seed: Optional[int] = None,
    ):
        self.fine_grained_type = fine_grained_type
        self.dimensions = dimensions
        self.hidden = hidden
        if seed is None:
            seed = int(hashlib.md5(fine_grained_type.encode()).hexdigest()[:6], 16)
        self.seed = seed
        rng = np.random.RandomState(seed)
        scale1 = 1.0 / math.sqrt(VALUE_FEATURE_DIMENSIONS)
        scale2 = 1.0 / math.sqrt(hidden)
        self.W1 = rng.normal(scale=scale1, size=(VALUE_FEATURE_DIMENSIONS, hidden))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.normal(scale=scale2, size=(hidden, dimensions))
        self.b2 = np.zeros(dimensions)

    # --------------------------------------------------------------- forward
    def forward_features(self, features: np.ndarray) -> np.ndarray:
        """Embed a batch (or single vector) of value features."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        hidden = np.tanh(features @ self.W1 + self.b1)
        output = np.tanh(hidden @ self.W2 + self.b2)
        return output

    def forward(self, value: Any) -> np.ndarray:
        """Embed a single cell value."""
        return self.forward_features(featurize_value(value, self.fine_grained_type))[0]

    def embed_values(self, values: Sequence[Any]) -> np.ndarray:
        """Average embedding of a sequence of values (a column sample)."""
        if not values:
            return np.zeros(self.dimensions)
        # Each distinct cell is featurized once and its row gathered wherever
        # it occurs, into the matrix a featurizer call per cell would build.
        # Featurizers see a cell only through ``float(value)`` / ``str(value)``,
        # so type plus text identify it (``1``, ``1.0``, ``"1"`` stay apart).
        distinct: List[np.ndarray] = []
        row_of: Dict[Any, int] = {}
        gather: List[int] = []
        for value in values:
            key = (type(value), str(value))
            row = row_of.get(key)
            if row is None:
                row = row_of[key] = len(distinct)
                distinct.append(featurize_value(value, self.fine_grained_type))
            gather.append(row)
        return self.forward_features(np.vstack(distinct)[gather]).mean(axis=0)

    # ------------------------------------------------------------- training
    def pair_probability(self, features_a: np.ndarray, features_b: np.ndarray) -> float:
        """Predicted probability that two value-feature sets are similar columns."""
        embedding_a = self.forward_features(features_a).mean(axis=0)
        embedding_b = self.forward_features(features_b).mean(axis=0)
        return cosine_similarity(embedding_a, embedding_b)


class ColRModelSet:
    """The family ``H_{theta, T}``: one CoLR model per fine-grained type."""

    def __init__(self, dimensions: int = COLR_DIMENSIONS, hidden: int = 128):
        self.dimensions = dimensions
        self.models: Dict[str, ColRModel] = {
            type_name: ColRModel(type_name, dimensions=dimensions, hidden=hidden)
            for type_name in COLR_TYPES
        }

    @classmethod
    def pretrained(cls, dimensions: int = COLR_DIMENSIONS) -> "ColRModelSet":
        """The deterministic pre-trained model set shipped with the platform."""
        return cls(dimensions=dimensions)

    def model_for(self, fine_grained_type: str) -> ColRModel:
        """The model for a fine-grained type (generic string model as fallback)."""
        return self.models.get(fine_grained_type, self.models["string"])

    def embed_column_values(
        self, values: Sequence[Any], fine_grained_type: str
    ) -> np.ndarray:
        """Column embedding: average CoLR over the (sampled) values."""
        return self.model_for(fine_grained_type).embed_values(list(values))

    def table_embedding(
        self, column_embeddings: Iterable, column_types: Iterable[str]
    ) -> np.ndarray:
        """Table embedding per Eq. (1): concatenation of per-type averages.

        ``column_embeddings`` and ``column_types`` are parallel sequences; the
        result has ``len(COLR_TYPES) * dimensions`` entries (1800 by default),
        with zeros for types absent from the table.
        """
        per_type: Dict[str, List[np.ndarray]] = {t: [] for t in COLR_TYPES}
        for embedding, type_name in zip(column_embeddings, column_types):
            if type_name in per_type:
                per_type[type_name].append(np.asarray(embedding, dtype=float))
        parts = []
        for type_name in COLR_TYPES:
            embeddings = per_type[type_name]
            if embeddings:
                parts.append(np.mean(embeddings, axis=0))
            else:
                parts.append(np.zeros(self.dimensions))
        return np.concatenate(parts)

    def dataset_embedding(self, table_embeddings: Sequence[np.ndarray]) -> np.ndarray:
        """Dataset embedding: the mean of its table embeddings."""
        if not len(table_embeddings):
            return np.zeros(self.dimensions * len(COLR_TYPES))
        return np.mean(np.vstack(table_embeddings), axis=0)


class CoarseGrainedModelSet(ColRModelSet):
    """The coarse-grained ablation baseline of Figure 6.

    Inspired by Mueller & Smola's three-model design, it keeps only three
    embedding models — numeric, string and "other" — so columns of different
    fine-grained types are embedded (and therefore compared) together.
    """

    _COARSE_MAP = {
        "int": "numeric",
        "float": "numeric",
        "date": "other",
        "named_entity": "string",
        "natural_language": "string",
        "string": "string",
        "boolean": "other",
    }

    def __init__(self, dimensions: int = COLR_DIMENSIONS, hidden: int = 128):
        self.dimensions = dimensions
        self.models = {
            "numeric": ColRModel("float", dimensions=dimensions, hidden=hidden, seed=101),
            "string": ColRModel("string", dimensions=dimensions, hidden=hidden, seed=102),
            "other": ColRModel("string", dimensions=dimensions, hidden=hidden, seed=103),
        }

    def model_for(self, fine_grained_type: str) -> ColRModel:
        coarse = self._COARSE_MAP.get(fine_grained_type, "string")
        return self.models[coarse]

    def coarse_type(self, fine_grained_type: str) -> str:
        """The coarse group a fine-grained type falls into."""
        return self._COARSE_MAP.get(fine_grained_type, "string")
