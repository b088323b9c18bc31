"""Decoupled streams and the stream-floating engines."""
