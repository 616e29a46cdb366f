"""Cleaning / transformation operation registries and their application logic.

These are the concrete operations the GNN recommenders choose among, and the
``apply_*`` helpers that the KGLiDS interfaces expose so users can execute a
recommendation without writing code (Section 4.1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.impute import InterpolateImputer, IterativeImputer, KNNImputer, SimpleImputer
from repro.ml.preprocessing import MinMaxScaler, RobustScaler, StandardScaler
from repro.tabular import Column, Table
from repro.tabular.values import coerce_float, is_missing

#: The five cleaning operations of Section 4.2, in label order.
CLEANING_OPERATIONS = (
    "Fillna",
    "Interpolate",
    "SimpleImputer",
    "KNNImputer",
    "IterativeImputer",
)

#: The three table-level scaling transformations of Section 4.3.
SCALING_OPERATIONS = ("StandardScaler", "MinMaxScaler", "RobustScaler")

#: The column-level unary transformations of Section 4.3 (plus "none").
UNARY_OPERATIONS = ("none", "log", "sqrt")


# --------------------------------------------------------------------------
# Cleaning
# --------------------------------------------------------------------------
def _numeric_matrix(table: Table, column_names: Sequence[str]) -> np.ndarray:
    matrix = np.full((table.num_rows, len(column_names)), np.nan)
    for j, name in enumerate(column_names):
        matrix[:, j] = table.column(name).to_float_array()
    return matrix


def apply_cleaning_operation(
    table: Table, operation: str, fill_value: float = 0.0
) -> Table:
    """Return a copy of ``table`` with missing values handled by ``operation``.

    Numeric columns are imputed with the chosen matrix-level imputer;
    categorical columns are always filled with their most frequent value
    (which is what the abstracted Kaggle pipelines overwhelmingly do for
    string columns regardless of the numeric strategy).
    """
    if operation not in CLEANING_OPERATIONS:
        raise ValueError(
            f"unknown cleaning operation {operation!r}; expected one of {CLEANING_OPERATIONS}"
        )
    cleaned = table.copy()
    numeric_names = [
        column.name
        for column in cleaned.columns
        if column.dtype in ("int", "float", "bool")
    ]
    if numeric_names:
        matrix = _numeric_matrix(cleaned, numeric_names)
        if operation == "Fillna":
            imputer = SimpleImputer(strategy="constant", fill_value=fill_value)
        elif operation == "Interpolate":
            imputer = InterpolateImputer()
        elif operation == "SimpleImputer":
            imputer = SimpleImputer(strategy="mean")
        elif operation == "KNNImputer":
            imputer = KNNImputer(n_neighbors=5)
        else:
            imputer = IterativeImputer(max_iter=3)
        filled = imputer.fit_transform(matrix)
        for j, name in enumerate(numeric_names):
            original = cleaned.column(name)
            new_values = [
                original[i] if not is_missing(original[i]) else float(filled[i, j])
                for i in range(cleaned.num_rows)
            ]
            cleaned.set_column(Column(name, new_values))
    for column in cleaned.columns:
        if column.name in numeric_names or not column.has_missing():
            continue
        most_frequent = column.most_frequent()
        cleaned.set_column(column.fill_missing(most_frequent if most_frequent is not None else ""))
    return cleaned


# --------------------------------------------------------------------------
# Transformation
# --------------------------------------------------------------------------
def apply_scaling_operation(
    table: Table, operation: str, exclude: Optional[Sequence[str]] = None
) -> Table:
    """Scale all numeric columns of the table with the chosen scaler."""
    if operation not in SCALING_OPERATIONS:
        raise ValueError(
            f"unknown scaling operation {operation!r}; expected one of {SCALING_OPERATIONS}"
        )
    exclude = set(exclude or [])
    scaled = table.copy()
    numeric_names = [
        column.name
        for column in scaled.columns
        if column.dtype in ("int", "float") and column.name not in exclude
    ]
    if not numeric_names:
        return scaled
    matrix = _numeric_matrix(scaled, numeric_names)
    finite_fill = np.nanmean(matrix, axis=0)
    finite_fill = np.where(np.isfinite(finite_fill), finite_fill, 0.0)
    matrix = np.where(np.isfinite(matrix), matrix, finite_fill)
    scaler = {"StandardScaler": StandardScaler, "MinMaxScaler": MinMaxScaler, "RobustScaler": RobustScaler}[
        operation
    ]()
    transformed = scaler.fit_transform(matrix)
    for j, name in enumerate(numeric_names):
        original = table.column(name)
        values = [
            None if is_missing(original[i]) else float(transformed[i, j])
            for i in range(table.num_rows)
        ]
        scaled.set_column(Column(name, values))
    return scaled


def apply_unary_transformation(table: Table, column_name: str, operation: str) -> Table:
    """Apply ``log`` / ``sqrt`` to one numeric column (``none`` is a no-op)."""
    if operation not in UNARY_OPERATIONS:
        raise ValueError(
            f"unknown unary transformation {operation!r}; expected one of {UNARY_OPERATIONS}"
        )
    transformed = table.copy()
    if operation == "none":
        return transformed
    column = transformed.column(column_name)
    numeric = column.to_float_array()
    finite = numeric[np.isfinite(numeric)]
    shift = min(0.0, float(finite.min())) if finite.size else 0.0
    new_values = []
    for value in column.values:
        as_float = coerce_float(value)
        if as_float is None:
            new_values.append(None)
        elif operation == "log":
            new_values.append(float(np.log1p(as_float - shift)))
        else:
            new_values.append(float(np.sqrt(max(0.0, as_float - shift))))
    transformed.set_column(Column(column_name, new_values))
    return transformed
