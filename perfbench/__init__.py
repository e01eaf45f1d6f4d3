"""End-to-end and per-layer benchmark for qpamp; run ``python3 perfbench/run.py``."""
