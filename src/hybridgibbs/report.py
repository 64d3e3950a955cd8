"""Certified-inequality reports.

A BoundReport records one inequality lhs <= rhs together with the tolerance it
was certified at, a witness describing where the worst slack occurred, and a
fingerprint tying the report to the model it was computed on.  Status
"hypothesis_unmet" marks inequalities whose hypotheses do not hold for the
model at hand; such reports never count as failures.
"""

import hashlib
import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis_unmet"


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    tol: float
    status: str
    witness: dict = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.status != FAIL

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "slack": float(self.slack),
            "pass": self.passed,
            "status": self.status,
            "tol": float(self.tol),
            "witness": self.witness,
            "fingerprint": self.fingerprint,
        }


def make_report(name, lhs, rhs, tol, witness=None, fingerprint="", hypothesis_ok=True):
    """Build a report, deriving the status from the slack and the hypothesis."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not hypothesis_ok:
        status = HYPOTHESIS_UNMET
    elif rhs - lhs >= -tol:
        status = PASS
    else:
        status = FAIL
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        tol=float(tol),
        status=status,
        witness=witness or {},
        fingerprint=fingerprint,
    )


def fingerprint_bytes(*chunks):
    """Stable short hex fingerprint of a sequence of bytes-like objects."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def fingerprint_json(obj):
    """Fingerprint of a JSON-serializable object in canonical form."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return fingerprint_bytes(payload)
