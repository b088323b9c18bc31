"""Prefetchers: stride, Bingo spatial, and bulk request grouping."""
