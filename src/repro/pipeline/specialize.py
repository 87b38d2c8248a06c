"""Loader counters of the retired hot-trace code generator.

Hot traces replay on the scalar row plan
(:meth:`~repro.pipeline.core.TimingCore.run_hot_plan`) under both
:class:`~repro.pipeline.columnar.ExecutionBackend` values; nothing is
generated or compiled any more.  The counters stay, always zero, because
the benchmark's traced run (``bench/workloads.py``) reads them; they
retire with ``ExecutionBackend`` in ROADMAP item 2, step 1.
"""

#: Generated-code loads by source: compiles, memory-LRU and disk hits.
LOADER_STATS = {"compiles": 0, "memory_hits": 0, "disk_hits": 0}
