"""End-to-end benchmark of the reproduction: four workloads measured
outside-in, with a traced run that splits host time by layer.

See ``README.md`` in this directory; the metric definitions and bounds
are in ``BENCHMARK.json`` at the repository root.
"""
