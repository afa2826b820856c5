"""End-to-end benchmark: paper figures, full report, grid job, fleet soak.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
