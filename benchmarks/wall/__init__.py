"""Wall-clock benchmark for the CMS (see README.md in this directory).

Six seeded workloads, end-to-end metrics from unprobed runs, and a
per-layer ledger from a benchmark-side span trace.  Entry points:

* ``python3 benchmarks/wall/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON result line (what
  ``BENCHMARK.json`` names);
* ``PYTHONPATH=src python -m benchmarks.wall`` — every workload, every
  metric printed as ``workload metric value unit``, ledger written to
  ``benchmarks/wall/results/latest.json``;
* ``python benchmarks/wall/compare.py A.json B.json`` — the A/B table.
"""
