"""JSON persistence for sweep results.

Long experiment campaigns want durable run records: :func:`save_sweep` /
:func:`load_sweep` round-trip a :class:`~repro.core.runner.SweepResult`
(including the full configuration of every row) through a stable JSON
schema, so results can be archived, diffed between model versions, and
re-plotted without re-simulation.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import jsonlog
from repro.core.experiment import ExperimentConfig
from repro.core.runner import Row, SweepResult
from repro.errors import ConfigurationError
from repro.runtime.affinity import ProcessAllocation, ThreadBinding

#: Schema version written into every file; bump on breaking changes.
SCHEMA_VERSION = 1

#: Oldest schema this reader still understands.
MIN_SCHEMA_VERSION = 1


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "app": config.app,
        "dataset": config.dataset,
        "processor": config.processor,
        "n_nodes": config.n_nodes,
        "n_ranks": config.n_ranks,
        "n_threads": config.n_threads,
        "binding": {"policy": config.binding.policy,
                    "stride": config.binding.stride},
        "allocation": config.allocation.method,
        "options_preset": config.options_preset,
        "data_policy": config.data_policy,
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            app=d["app"],
            dataset=d["dataset"],
            processor=d["processor"],
            n_nodes=d["n_nodes"],
            n_ranks=d["n_ranks"],
            n_threads=d["n_threads"],
            binding=ThreadBinding(d["binding"]["policy"],
                                  d["binding"]["stride"]),
            allocation=ProcessAllocation(d["allocation"]),
            options_preset=d["options_preset"],
            data_policy=d["data_policy"],
        )
    except KeyError as exc:
        raise ConfigurationError(f"malformed config record: missing {exc}") \
            from None


def row_to_dict(row: Row) -> dict:
    return {
        "config": config_to_dict(row.config),
        "elapsed": row.elapsed,
        "gflops": row.gflops,
        "dram_gbytes_per_s": row.dram_gbytes_per_s,
        "comm_fraction": row.comm_fraction,
        "engine": row.engine,
    }


def row_from_dict(d: dict) -> Row:
    try:
        return Row(
            config=config_from_dict(d["config"]),
            elapsed=d["elapsed"],
            gflops=d["gflops"],
            dram_gbytes_per_s=d["dram_gbytes_per_s"],
            comm_fraction=d["comm_fraction"],
            # rows written before the analytic engine existed are event rows
            engine=d.get("engine", "event"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"malformed row record: missing {exc}") \
            from None


def sweep_to_payload(sweep: SweepResult) -> dict:
    """The JSON payload :func:`save_sweep` writes."""
    return {
        "schema": SCHEMA_VERSION,
        "name": sweep.name,
        "rows": [row_to_dict(r) for r in sweep.rows],
    }


def save_sweep(sweep: SweepResult, path: str | Path) -> Path:
    """Write a sweep to JSON atomically; returns the path.

    The payload lands in a temporary sibling first and is moved into
    place with ``os.replace`` (:func:`repro.jsonlog.replace_file`), so
    readers never observe a half-written file even if the writer dies
    mid-dump.
    """
    path = Path(path)
    jsonlog.replace_file(path, json.dumps(sweep_to_payload(sweep)).encode())
    return path


def load_sweep(path: str | Path) -> SweepResult:
    """Load a sweep written by :func:`save_sweep`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read sweep file {path}: {exc}") \
            from None
    return sweep_from_payload(payload, str(path))


def sweep_from_payload(payload: dict, where: str) -> SweepResult:
    """The sweep a :func:`sweep_to_payload` payload holds, after the
    schema checks; ``where`` names the payload in errors."""
    schema = payload.get("schema")
    if not isinstance(schema, int):
        raise ConfigurationError(
            f"{where}: missing or non-integer schema field {schema!r} "
            f"(not a repro sweep file?)"
        )
    if schema > SCHEMA_VERSION:
        raise ConfigurationError(
            f"{where}: schema {schema} was written by a newer repro "
            f"(this build reads up to {SCHEMA_VERSION}); upgrade repro "
            f"or regenerate the file"
        )
    if schema < MIN_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{where}: schema {schema} is older than the oldest supported "
            f"version {MIN_SCHEMA_VERSION} (regenerate the file)"
        )
    sweep = SweepResult(payload["name"])
    for rd in payload["rows"]:
        sweep.add(row_from_dict(rd))
    return sweep
