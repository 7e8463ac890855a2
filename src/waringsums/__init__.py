"""Exponential sums, singular series, and asymptotics for sums of k-th powers."""

__version__ = "0.1.0"
