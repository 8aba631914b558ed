"""Name tables shared by the CLI, the sweep service and the engines.

This module imports nothing, so ``repro --help`` and a service client
can offer and check these names without loading what they name.  The
tables that only name objects built elsewhere (:data:`APPS`,
:data:`PROCESSORS`, :data:`PRESETS`) are pinned to their registries by
``tests/test_names.py``; the others are the tables their owners use.
"""

#: Scoring engines of ``run_config`` / ``run_sweep``, the CLI's
#: ``--engine`` and a service job.
ENGINES = ("event", "analytic", "auto")

#: Service job priorities, in ascending weight order.  Priorities
#: *weight* the fair-share scheduler (see :mod:`repro.service.fairshare`)
#: but never starve lower ones.
PRIORITIES = ("low", "normal", "high")

#: The Fiber miniapps (:data:`repro.miniapps.SUITE`), sorted.
APPS = ("ccs-qcd", "ffb", "ffvc", "modylas", "mvmc", "ngsa", "nicam-dc",
        "ntchem")

#: The processor catalog (:data:`repro.machine.catalog.PROCESSORS`),
#: sorted.
PROCESSORS = ("A64FX", "A64FX-FX700", "SPARC64-VIIIfx", "ThunderX2",
              "Xeon-Skylake")

#: MPI process-allocation methods, the F3 axis
#: (:class:`repro.runtime.affinity.ProcessAllocation`).
ALLOCATIONS = ("block", "cyclic", "domain-pack", "spread")

#: Compiler presets (:data:`repro.compile.options.PRESETS`), in its
#: order: the F4 tuning progression, then the placement studies'
#: ``kfast``.
PRESETS = ("as-is", "+simd", "+simd+sched", "tuned", "kfast")

#: Data-placement policies (:mod:`repro.runtime.openmp`).
DATA_POLICIES = ("first-touch", "serial-init")
