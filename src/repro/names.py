"""Name tables shared by the CLI, the sweep service and the engines.

This module imports nothing, so ``repro --help`` and a service client
can offer and check these names without loading what they name.
"""

#: Scoring engines of ``run_config`` / ``run_sweep``, the CLI's
#: ``--engine`` and a service job.
ENGINES = ("event", "analytic", "auto")

#: Service job priorities, in ascending weight order.  Priorities
#: *weight* the fair-share scheduler (see :mod:`repro.service.fairshare`)
#: but never starve lower ones.
PRIORITIES = ("low", "normal", "high")
