"""Denormal-frequency telemetry.

Quantized tensors are summarized into per-(tensor, phase, step) class
counts.  The headline number is the denormal fraction: denormal count
over total element count, zeros, infinities and NaNs included in the
denominator only.  A sink collects records over a run and reduces them
to per-tensor and global maxima, which is what the convergence studies
care about: the worst-case density of denormals a hardware unit would
have had to absorb.
"""

from __future__ import annotations

import csv
import enum
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .formats import FpFormat, class_counts, parse_int, parse_value

__all__ = ["Phase", "DenormalStats", "RunSummary", "TelemetrySink"]

CSV_COLUMNS = [
    "run_id",
    "tensor_id",
    "phase",
    "step",
    "n_zero",
    "n_denormal",
    "n_normal",
    "n_inf",
    "n_nan",
    "fraction",
]
_COUNT_COLUMNS = [c for c in CSV_COLUMNS if c.startswith("n_")]


class Phase(enum.Enum):
    FORWARD_ACTIVATION = "forward_activation"
    WEIGHT = "weight"
    ACTIVATION_GRADIENT = "activation_gradient"


@dataclass(frozen=True)
class DenormalStats:
    """Class counts for one tensor at one step."""

    tensor_id: str
    phase: str
    step: int
    n_zero: int
    n_denormal: int
    n_normal: int
    n_inf: int
    n_nan: int

    @classmethod
    def from_array(
        cls, values: np.ndarray, fmt: FpFormat, *, tensor_id: str, phase: Phase, step: int
    ) -> "DenormalStats":
        counts = dict(zip(_COUNT_COLUMNS, class_counts(values, fmt)))
        return cls(tensor_id=tensor_id, phase=phase.value, step=step, **counts)

    @property
    def total(self) -> int:
        return self.n_zero + self.n_denormal + self.n_normal + self.n_inf + self.n_nan

    @property
    def fraction_denormal(self) -> float:
        """Denormal share of all elements. Empty tensors count as 0."""
        total = self.total
        if total == 0:
            return 0.0
        return self.n_denormal / total

    def key(self) -> tuple[str, int, str]:
        return (self.tensor_id, self.step, self.phase)


@dataclass
class RunSummary:
    """Reduction of a run's telemetry plus run-level metadata."""

    run_id: str
    fmt: str
    dls: bool
    accum_mode: str
    per_tensor_max: dict[str, float]
    global_max: float
    n_records: int
    final_loss: float | None = None
    outcome: str | None = None

    def to_json(self) -> str:
        payload = {key: getattr(self, name) for key, (name, _) in _SUMMARY_KEYS.items()}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunSummary":
        """Parse :meth:`to_json` output.  A payload that is not an object
        of the expected keys and value types raises ValueError."""
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, found {type(d).__name__}")
        fields = {}
        for key, (name, types) in _SUMMARY_KEYS.items():
            value = d.get(key)
            # bool is an int subclass, but true is not a number here
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                wants = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"{key} must be {wants}, found {json.dumps(value)}")
            if float in types and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{key} is an integer beyond binary64's range")
            fields[name] = value
        return cls(**fields)


# summary.json key -> (RunSummary field, accepted value types)
_SUMMARY_KEYS = {
    "run_id": ("run_id", (str,)),
    "format": ("fmt", (str,)),
    "dls": ("dls", (bool,)),
    "accum_mode": ("accum_mode", (str,)),
    "per_tensor_max_denormal_fraction": ("per_tensor_max", (dict,)),
    "global_max_denormal_fraction": ("global_max", (int, float)),
    "n_records": ("n_records", (int,)),
    "final_loss": ("final_loss", (int, float, type(None))),
    "outcome": ("outcome", (str, type(None))),
}


@dataclass
class TelemetrySink:
    """Collects DenormalStats records for one run.

    Re-recording the same (tensor_id, step, phase) is an error: it would
    silently double-count in the maxima.
    """

    run_id: str
    records: list[DenormalStats] = field(default_factory=list)
    _seen: set[tuple[str, int, str]] = field(default_factory=set)

    def record(self, stats: DenormalStats) -> None:
        key = stats.key()
        if key in self._seen:
            raise ValueError(f"duplicate telemetry record for {key}")
        self._seen.add(key)
        self.records.append(stats)

    def per_tensor_max(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.records:
            frac = r.fraction_denormal
            if frac > out.get(r.tensor_id, -1.0):
                out[r.tensor_id] = frac
        return dict(sorted(out.items()))

    def global_max(self) -> float:
        per = self.per_tensor_max()
        return max(per.values(), default=0.0)

    def summarize(
        self,
        *,
        fmt: str,
        dls: bool,
        accum_mode: str,
        final_loss: float | None = None,
        outcome: str | None = None,
    ) -> RunSummary:
        per = self.per_tensor_max()
        return RunSummary(
            run_id=self.run_id,
            fmt=fmt,
            dls=dls,
            accum_mode=accum_mode,
            per_tensor_max=per,
            global_max=max(per.values(), default=0.0),
            n_records=len(self.records),
            final_loss=final_loss,
            outcome=outcome,
        )

    # ── CSV round trip ─────────────────────────────────────────────────

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            for r in self.records:
                counts = [getattr(r, c) for c in _COUNT_COLUMNS]
                w.writerow(
                    [self.run_id, r.tensor_id, r.phase, r.step, *counts,
                     repr(r.fraction_denormal)]
                )

    @classmethod
    def read_csv(cls, path: str | Path) -> "TelemetrySink":
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames != CSV_COLUMNS:
                raise ValueError(f"unexpected telemetry CSV header: {reader.fieldnames}")
            sink = None
            for row in reader:
                if sink is None:
                    sink = cls(run_id=row["run_id"])
                stats = DenormalStats(
                    tensor_id=row["tensor_id"],
                    phase=row["phase"],
                    step=parse_int(row["step"]),
                    **{c: parse_int(row[c]) for c in _COUNT_COLUMNS},
                )
                declared = parse_value(row["fraction"])
                if declared != stats.fraction_denormal:
                    raise ValueError(
                        f"fraction column disagrees with counts at {stats.key()}"
                    )
                sink.record(stats)
        return sink if sink is not None else cls(run_id="")
