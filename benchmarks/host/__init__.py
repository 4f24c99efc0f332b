"""Host-time benchmark: how long the Python process takes, measured from outside.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root names the command, the workloads and the metrics.
"""
