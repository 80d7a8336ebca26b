"""Parallel partitioned execution: multi-core CEP over stream shards.

The paper evaluates CEP patterns as multi-way stream joins — exactly
the setting where data-parallel execution pays off (CLASH's partitioned
multi-way join stores).  This subsystem shards one logical stream
across a worker pool and merges the per-worker match streams into a
deterministic canonical order, with one partitioning rule:

* a plan whose equality predicates place every variable in one
  key-equivalence class is **key**-partitioned — each event routes by
  the hash of its key, every match forms inside one worker;
* any other plan (theta-only, Kleene, negation, or a shared plan whose
  queries disagree on a key) runs on **one worker** of the configured
  backend.

Entry points::

    from repro import ParallelConfig, build_engines, run_workload

    executor = build_engines(planned, parallel=ParallelConfig(workers=4))
    matches = executor.run(stream)          # == canonical single-core output

    result = run_workload(workload, stream,
                          parallel=ParallelConfig(workers=4))

Guarantees: for every backend and worker count, the merged match list
is byte-identical (canonically ordered, see
:mod:`repro.parallel.ordering`) to single-threaded execution of the
same plans — the seeded equivalence tests assert it across the tree,
lazy-NFA and multi-query runtimes.
"""

from .executor import ParallelConfig, ParallelExecutor
from .ordering import (
    canonical_order,
    completion_seq,
    content_key,
    match_min_seq,
    match_records,
    match_sort_key,
)
from .partitioners import KeyPartitioner, key_routing_map
from .worker import EngineSpec, SharedSpec, TaskRunner, WorkerTask, execute_task

__all__ = [
    "ParallelConfig",
    "ParallelExecutor",
    "canonical_order",
    "completion_seq",
    "content_key",
    "match_min_seq",
    "match_records",
    "match_sort_key",
    "KeyPartitioner",
    "key_routing_map",
    "EngineSpec",
    "SharedSpec",
    "TaskRunner",
    "WorkerTask",
    "execute_task",
]
