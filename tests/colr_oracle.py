"""The per-value CoLR column embedding: the differential oracle.

What ``ColRModel.embed_values`` did before it featurized a column in one
pass, moved out of ``src/``: every sampled cell is featurized on its own,
duplicates included, and every character 2/3-gram *occurrence* is hashed
with a fresh ``hashlib.md5`` — no distinct-value table, no bucket memo.
Slow and obviously right; ``tests/test_write_path_parity.py`` requires the
production embedding to be bit-equal (``np.array_equal``), because CoLR
cosines decide which content-similarity edges the governor writes.

The numeric featurizer is the production one (it was not touched); the
string and date featurizers are copied here so that a change to the memo or
to the gram loop in ``src/`` cannot move both sides at once.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Sequence

import numpy as np

from repro.embeddings.colr import (
    VALUE_FEATURE_DIMENSIONS,
    ColRModel,
    numeric_value_features,
)
from repro.types import TYPE_DATE, TYPE_FLOAT, TYPE_INT

_YEAR_RE = re.compile(r"(19|20)\d{2}")
_DIGIT_RE = re.compile(r"\d")


def hash_bucket(text: str, buckets: int, salt: str) -> int:
    digest = hashlib.md5(f"{salt}:{text}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % buckets


def string_value_features(value: Any, salt: str = "string") -> np.ndarray:
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
    for n in (2, 3):
        for i in range(max(0, len(padded) - n + 1)):
            features[8 + hash_bucket(padded[i : i + n], buckets, salt)] += 1.0
    gram_part = features[8:]
    norm = np.linalg.norm(gram_part)
    if norm > 0:
        features[8:] = gram_part / norm
    return features


def date_value_features(value: Any) -> np.ndarray:
    features = np.zeros(VALUE_FEATURE_DIMENSIONS)
    text = str(value)
    year_match = _YEAR_RE.search(text)
    if year_match:
        features[0] = (int(year_match.group(0)) - 1900) / 200.0
        features[1] = 1.0
    numbers = [int(n) for n in re.findall(r"\d+", text)]
    if numbers:
        features[2] = min(1.0, len(numbers) / 6.0)
        features[3] = min(numbers) / 60.0
        features[4] = max(numbers) / 3000.0
    features[5] = 1.0 if "-" in text else 0.0
    features[6] = 1.0 if "/" in text else 0.0
    features[7] = 1.0 if ":" in text else 0.0
    features[8] = min(1.0, len(text) / 30.0)
    features[9:] = string_value_features(text, salt="date")[9:]
    return features


def featurize_value(value: Any, fine_grained_type: str) -> np.ndarray:
    if fine_grained_type in (TYPE_INT, TYPE_FLOAT):
        try:
            return numeric_value_features(float(value))
        except (TypeError, ValueError):
            return np.zeros(VALUE_FEATURE_DIMENSIONS)
    if fine_grained_type == TYPE_DATE:
        return date_value_features(value)
    return string_value_features(value, salt=fine_grained_type)


def embed_values(model: ColRModel, values: Sequence[Any]) -> np.ndarray:
    """Average ``model`` embedding of ``values``, one featurizer call per cell."""
    if not values:
        return np.zeros(model.dimensions)
    features = np.vstack([featurize_value(value, model.fine_grained_type) for value in values])
    return model.forward_features(features).mean(axis=0)
