"""Tests of the benchmark itself, on the ``--smoke`` tier."""
