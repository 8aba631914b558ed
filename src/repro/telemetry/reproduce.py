"""``repro reproduce`` — re-execute a recorded run from its manifest.

The manifest is treated as the complete job spec: configs, engine, and
fault plan are rebuilt from the snapshot alone and re-executed against
the *current* model, bypassing every persistent cache (a reproduction
that reads the original's cached rows would only prove the cache
works).  The replayed rows are then diffed field-by-field against the
run's ``summary`` record within a relative tolerance; any drift names
the exact config and field, and the CLI exits non-zero.

A fingerprint mismatch (the model changed since the run was recorded)
is reported alongside the drift — drift with a matching fingerprint
means lost determinism, drift with a changed fingerprint means the
model moved; the two diagnoses are worlds apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.telemetry import manifest as manifest_mod
from repro.telemetry import runlog, state

#: Row fields compared between the recorded and replayed runs.
COMPARED_FIELDS = ("elapsed", "gflops", "dram_gbytes_per_s",
                   "comm_fraction")


@dataclass(frozen=True)
class RowDrift:
    """One field of one config that no longer matches the record."""

    config: str
    field: str
    recorded: float
    replayed: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.recorded), abs(self.replayed))
        return abs(self.recorded - self.replayed) / scale if scale else 0.0

    def __str__(self) -> str:
        return (f"{self.config}: {self.field} recorded={self.recorded!r} "
                f"replayed={self.replayed!r} "
                f"(rel err {self.rel_error:.3e})")

    def to_dict(self) -> dict[str, Any]:
        return {"config": self.config, "field": self.field,
                "recorded": self.recorded, "replayed": self.replayed,
                "rel_error": self.rel_error}


@dataclass
class ReproduceReport:
    """Outcome of one manifest replay."""

    run_id: str
    engine: str
    rtol: float
    atol: float
    checked: int = 0
    fingerprint_match: bool = True
    drifts: list[RowDrift] = field(default_factory=list)
    #: Configs recorded in the summary whose replay produced no row
    #: (replay failure), as (label, reason) pairs.
    missing: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifts and not self.missing

    def render(self) -> str:
        verdict = "REPRODUCED" if self.ok else "DRIFT"
        lines = [
            f"reproduce {self.run_id}: {verdict} "
            f"({self.checked} row(s) checked, engine={self.engine}, "
            f"rtol={self.rtol:g})"
        ]
        if not self.fingerprint_match:
            lines.append(
                "  NOTE: model fingerprint changed since the run was "
                "recorded — drift below reflects a model change, not "
                "lost determinism")
        for label, reason in self.missing:
            lines.append(f"  missing: {label}: {reason}")
        for drift in self.drifts:
            lines.append(f"  drift: {drift}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id, "ok": self.ok, "engine": self.engine,
            "rtol": self.rtol, "atol": self.atol, "checked": self.checked,
            "fingerprint_match": self.fingerprint_match,
            "drifts": [d.to_dict() for d in self.drifts],
            "missing": [{"config": label, "reason": reason}
                        for label, reason in self.missing],
        }


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def reproduce_run(run_id: str,
                  results_dir: str | Path | None = None, *,
                  rtol: float = 1e-9, atol: float = 0.0,
                  workers: int = 1) -> ReproduceReport:
    """Replay a recorded run and diff it against its summary rows."""
    from repro.core.cache import config_digest, model_fingerprint
    from repro.core.runner import run_config, run_sweep

    run = runlog.find(state.runs_root(results_dir), run_id)
    manifest = run.checked_manifest()
    if run.summary is None:
        raise ConfigurationError(
            f"run {run.run_id} has no summary record (status "
            f"{manifest.get('status')!r}) — nothing to reproduce against")
    recorded = run.rows()
    configs = manifest_mod.manifest_configs(manifest)
    engine = str(manifest["engine"])

    fault_plan = None
    plan_record = manifest.get("fault_plan")
    if plan_record:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.from_dict(plan_record["plan"])

    report = ReproduceReport(
        run_id=str(manifest["run_id"]), engine=engine,
        rtol=rtol, atol=atol,
        fingerprint_match=(manifest.get("model_fingerprint")
                           == model_fingerprint()),
    )

    # Replay against a throwaway dict cache, with telemetry silenced:
    # the replay must neither read the original's persistent rows nor
    # record itself as a new run while checking an old one.
    with state.suppressed():
        if fault_plan is not None:
            replayed_rows: list[Any] = []
            errors: list[Any] = []
            for config in configs:
                try:
                    replayed_rows.append(
                        run_config(config, None, engine=engine,
                                   fault_plan=fault_plan))
                except Exception as exc:  # noqa: BLE001 - diffed below
                    errors.append((config.label(),
                                   f"{type(exc).__name__}: {exc}"))
        else:
            sweep = run_sweep(manifest["name"] + "-reproduce", configs,
                              {}, workers=workers, engine=engine,
                              errors="capture")
            replayed_rows = list(sweep.rows)
            errors = [(err.config.label(), f"{err.error}: {err.message}")
                      for err in sweep.errors]

    replay_by_key = {config_digest(r.config): r for r in replayed_rows}
    failed_labels = dict(errors)
    for row in recorded:
        key = config_digest(row.config)
        label = row.label
        replay = replay_by_key.get(key)
        if replay is None:
            report.missing.append(
                (label, failed_labels.get(label, "no replayed row")))
            continue
        report.checked += 1
        for field_name in COMPARED_FIELDS:
            a = float(getattr(row, field_name))
            b = float(getattr(replay, field_name))
            if not _close(a, b, rtol, atol):
                report.drifts.append(RowDrift(
                    config=label, field=field_name,
                    recorded=a, replayed=b))
    return report
