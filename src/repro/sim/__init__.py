"""Discrete-event simulation kernel, statistics and the sanitizer."""
