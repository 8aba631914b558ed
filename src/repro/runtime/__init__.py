"""Simulated MPI + OpenMP runtime on the machine model.

This package is the substrate for every placement experiment in the paper:

* :mod:`~repro.runtime.event` — the discrete-event engine.
* :mod:`~repro.runtime.program` — the operation vocabulary rank programs
  yield (compute regions, point-to-point, collectives).
* :mod:`~repro.runtime.replay` — replays a rank program once into the
  classified op trace the analyzer checks and the executor walks.
* :mod:`~repro.runtime.mpi` — message matching, rendezvous, NIC
  serialization; mpi4py-flavoured semantics.
* :mod:`~repro.runtime.collectives` — binomial / recursive-doubling / ring
  cost models.
* :mod:`~repro.runtime.openmp` — fork-join parallel-region timing with
  schedules, imbalance, and NUMA-aware bandwidth shares.
* :mod:`~repro.runtime.affinity` — thread-binding policies (compact,
  scatter, stride-k) and process-allocation methods (block, cyclic,
  domain-packed).
* :mod:`~repro.runtime.placement` — rank -> cores mapping with
  oversubscription checks.
* :mod:`~repro.runtime.executor` — runs (traces x placement x machine x
  compiler) to a :class:`~repro.runtime.executor.RunResult`.
"""

from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.runtime.event import Engine
from repro.runtime.executor import Job, RunResult, run_job
from repro.runtime.placement import JobPlacement
from repro.runtime.program import (
    Allgather,
    Allreduce,
    Alltoall,
    Barrier,
    Bcast,
    Compute,
    Gather,
    Irecv,
    Isend,
    Recv,
    Reduce,
    Scatter,
    Send,
    Sendrecv,
    Sleep,
    WaitAll,
)

__all__ = [
    "Engine",
    "Job",
    "RunResult",
    "run_job",
    "JobPlacement",
    "ProcessAllocation",
    "ThreadBinding",
    "Compute",
    "Sleep",
    "Send",
    "Recv",
    "Isend",
    "Irecv",
    "WaitAll",
    "Sendrecv",
    "Barrier",
    "Bcast",
    "Reduce",
    "Allreduce",
    "Allgather",
    "Alltoall",
    "Gather",
    "Scatter",
]
