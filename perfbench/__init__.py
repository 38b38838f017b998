"""Seeded, layer-traced benchmark of the linkage pipeline (see run.py)."""
