"""Repository benchmark: E1 co-simulation, pure RTL, chained RTL shards
and a behavioural sweep, with a per-layer self-time trace."""
