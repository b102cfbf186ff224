"""Dataset construction, executors, splits, and evaluation metrics."""

from .metrics import f1_from_counts
from .splits import (
    split_iid,
    split_length,
    split_scan_primitive,
    split_template,
)

__all__ = [
    "f1_from_counts",
    "split_iid",
    "split_length",
    "split_scan_primitive",
    "split_template",
]
