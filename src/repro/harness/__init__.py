"""Experiment harness: points and their runner, cache, figures, reports."""
