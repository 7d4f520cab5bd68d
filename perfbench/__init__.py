"""End-to-end and per-layer benchmark of the repro-sat pipeline.

Run ``python3 perfbench/run.py --workload search --seed 1 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
