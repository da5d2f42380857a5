"""One single-process benchmark of the verification pipeline, end to end and per layer.

Four workloads — ``change_small``, ``change_widened``, ``kfailure_sweep``,
``base_cold`` — six end-to-end metrics and fifty per-layer metrics, defined
in :mod:`benchmarks.e2e.metrics` and mirrored in ``BENCHMARK.json`` at the
repository root. Every later performance claim in this repository names one
of these metrics on one of these workloads. See ``README.md`` next to this
file for why each workload exists and how the layers are expected to move
the end-to-end numbers.

Run ``PYTHONPATH=src python -m benchmarks.e2e`` for everything, or
``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` for one pass as the benchmark driver runs it.
"""
