"""Memory system: caches, coherence, DRAM, TLBs, address math."""
