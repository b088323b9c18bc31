"""Event-energy model (McPAT-substitute)."""
