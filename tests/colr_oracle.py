"""The per-value CoLR column embedding: the differential oracle.

What ``ColRModel.embed_values`` did before it featurized a column in one
pass, moved out of ``src/``: every sampled cell is featurized on its own,
duplicates included, and every character 2/3-gram *occurrence* is hashed
with a fresh ``hashlib.md5`` — no distinct-value table, no bucket memo.
Slow and obviously right; ``tests/test_write_path_parity.py`` requires the
production embedding to be bit-equal (``np.array_equal``), because CoLR
cosines decide which content-similarity edges the governor writes.

The featurizers are copied here so that a change to the memo, the gram loop
or the numeric clamp in ``src/`` cannot move both sides at once.  The
numeric one is the seed's, which overflows on an infinite cell; this oracle
reads ``±inf`` as ``±sys.float_info.max`` *before* calling it, so every
finite cell takes exactly the seed's path.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from typing import Any, Sequence

import numpy as np

from repro.embeddings.colr import VALUE_FEATURE_DIMENSIONS, ColRModel
from repro.types import TYPE_DATE, TYPE_FLOAT, TYPE_INT

_YEAR_RE = re.compile(r"(19|20)\d{2}")
_DIGIT_RE = re.compile(r"\d")


def numeric_value_features(value: float) -> np.ndarray:
    """The seed's numeric featurizer: finite values only."""
    features = np.zeros(VALUE_FEATURE_DIMENSIONS)
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return features
    value = float(value)
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
    for k, frequency in enumerate((0.5, 1.0, 2.0, 4.0, 8.0)):
        features[10 + 2 * k] = math.sin(frequency * magnitude)
        features[11 + 2 * k] = math.cos(frequency * magnitude)
    position = min(23.0, magnitude * 2.0)
    lower = int(position)
    fraction = position - lower
    features[20 + lower] = 1.0 - fraction
    if lower + 1 <= 23:
        features[20 + lower + 1] = fraction
    leading = str(abs(value)).lstrip("0.").replace(".", "")
    if leading:
        features[44 + min(9, int(leading[0]))] = 1.0
    features[54] = math.sin(value / (1.0 + abs(value)) * math.pi)
    features[55] = float(abs(value) % 10) / 10.0
    return features


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
            number = float(value)
        except (TypeError, ValueError):
            return np.zeros(VALUE_FEATURE_DIMENSIONS)
        if math.isinf(number):
            number = math.copysign(sys.float_info.max, number)
        return numeric_value_features(number)
    if fine_grained_type == TYPE_DATE:
        return date_value_features(value)
    return string_value_features(value, salt=fine_grained_type)


def embed_values(model: ColRModel, values: Sequence[Any]) -> np.ndarray:
    """Average ``model`` embedding of ``values``, one featurizer call per cell."""
    if not values:
        return np.zeros(model.dimensions)
    features = np.vstack([featurize_value(value, model.fine_grained_type) for value in values])
    return model.forward_features(features).mean(axis=0)
