"""Verification records and their JSON/CSV serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

SCHEMA = "hecke-forge/1"


@dataclass
class VerificationReport:
    name: str
    params: dict
    lhs: str
    rhs: str
    abs_error: float
    tolerance: float
    status: str  # pass | fail | skipped
    elapsed_ms: int = 0

    @classmethod
    def passfail(cls, name, params, lhs, rhs, abs_error,
                 tolerance) -> "VerificationReport":
        status = "pass" if abs_error <= tolerance else "fail"
        return cls(name, params, str(lhs), str(rhs), float(abs_error),
                   float(tolerance), status)

    @classmethod
    def exact(cls, name, params, lhs, rhs, equal: bool) -> "VerificationReport":
        return cls(name, params, str(lhs), str(rhs),
                   0.0 if equal else 1.0, 0.0, "pass" if equal else "fail")

    @classmethod
    def skipped(cls, name, params, reason: str) -> "VerificationReport":
        return cls(name, params, reason, "", 0.0, 0.0, "skipped", 0)

    def sort_key(self):
        return (self.name, json.dumps(self.params, sort_keys=True,
                                      default=str))

    def to_obj(self, with_timing=True) -> dict:
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms if with_timing else 0,
        }


def reports_to_json(reports, with_timestamps=True, extra=None) -> str:
    import datetime
    out = {"schema": SCHEMA}
    if extra:
        out.update(extra)
    if with_timestamps:
        out["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    out["reports"] = [r.to_obj(with_timing=with_timestamps)
                      for r in sorted(reports, key=lambda r: r.sort_key())]
    return json.dumps(out, indent=2, sort_keys=True)


def reports_to_csv(reports, with_timestamps=True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "params", "lhs", "rhs", "abs_error",
                     "tolerance", "status", "elapsed_ms"])
    for r in sorted(reports, key=lambda r: r.sort_key()):
        params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        writer.writerow([r.name, params, r.lhs, r.rhs, repr(r.abs_error),
                         repr(r.tolerance), r.status,
                         r.elapsed_ms if with_timestamps else 0])
    return buf.getvalue()
