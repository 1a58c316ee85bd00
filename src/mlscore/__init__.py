"""Margin-aware Laplacian feature scoring for imbalanced tabular data."""

__version__ = "0.1.0"
