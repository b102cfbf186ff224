"""Dataset construction, executors, splits, and evaluation metrics."""
