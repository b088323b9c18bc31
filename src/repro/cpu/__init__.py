"""Core timing models."""
