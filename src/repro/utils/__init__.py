"""Shared utilities: RNG handling, bit manipulation, metrics, validation."""

from repro.utils.bitops import (
    binary_to_index,
    enumerate_binary_inputs,
    index_to_binary,
)
from repro.utils.metrics import (
    accuracy,
    binary_accuracy,
    classification_report,
    confusion_matrix,
    error_rate,
)
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.tables import format_table, render_markdown_table
from repro.utils.validation import (
    check_binary_matrix,
    check_binary_vector,
    check_consistent_lengths,
    check_labels,
    check_probability,
)

__all__ = [
    "accuracy",
    "as_rng",
    "binary_accuracy",
    "binary_to_index",
    "check_binary_matrix",
    "check_binary_vector",
    "check_consistent_lengths",
    "check_labels",
    "check_probability",
    "classification_report",
    "confusion_matrix",
    "enumerate_binary_inputs",
    "error_rate",
    "format_table",
    "index_to_binary",
    "render_markdown_table",
    "spawn_rngs",
]
