"""End-to-end and per-layer benchmark for the dyncov simulator.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
