"""Mesh network-on-chip: topology, packets, and the wormhole model."""
