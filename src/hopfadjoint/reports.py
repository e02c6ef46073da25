"""Verification reports and canonical JSON serialisation.

Every checker in this package returns a VerificationReport: a list of
claims with pass/fail status and, for failures, a witness that can be
replayed.  Reports serialise to canonical JSON (sorted keys, rationals
as "num/den" strings) so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import Scalar, rational_str, scalar_to_strings
from .linalg import Matrix

SCHEMA_VERSION = 1


@dataclass
class ClaimResult:
    claim_id: str
    status: str  # "pass" | "fail" | "skipped"
    witness: object = None
    ms: float = 0.0

    def to_jsonable(self):
        # timing is deliberately left out so identical runs emit identical bytes
        out = {"claim_id": self.claim_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    claims: list[ClaimResult] = field(default_factory=list)

    def _append(self, claim: ClaimResult) -> None:
        if any(c.claim_id == claim.claim_id for c in self.claims):
            raise ValueError(f"duplicate claim id {claim.claim_id!r}")
        self.claims.append(claim)

    def add(self, claim_id: str, ok: bool, witness=None, ms: float = 0.0) -> None:
        if not ok and witness is None:
            witness = {}
        self._append(ClaimResult(claim_id, "pass" if ok else "fail", witness, ms))

    def add_skipped(self, claim_id: str, reason: str) -> None:
        self._append(ClaimResult(claim_id, "skipped", {"reason": reason}))

    def check(self, claim_id: str, witnesses) -> None:
        """Add claim_id, failing with the first item of the lazy iterable
        witnesses; the claim passes when it yields nothing.  A checker
        passes a generator that yields at each failing basis tuple, so the
        search stops at the first one."""
        t0 = time.perf_counter()
        witness = next(iter(witnesses), None)
        self.add(claim_id, witness is None, witness, (time.perf_counter() - t0) * 1e3)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def failures(self) -> list[ClaimResult]:
        return [c for c in self.claims if c.status == "fail"]

    def to_jsonable(self):
        return {
            "ok": self.ok,
            "claims": [c.to_jsonable() for c in self.claims],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.claims:
            lines.append(f"[{c.status.upper():>4}] {c.claim_id}")
        return lines


def jsonable(obj):
    """Convert package objects to plain JSON-compatible data.

    Each distinct scalar value is formatted once per call, and every
    occurrence shares that one string list.  A Matrix is laid out densely
    only here: its entry list starts as references to the zero's list and
    only its nonzero terms are written into it."""
    memo: dict[tuple[tuple[int, ...], int], list[str]] = {}

    def scalar(s: Scalar) -> list[str]:
        key = (s.num, s.den)
        out = memo.get(key)
        if out is None:
            out = memo[key] = scalar_to_strings(s)
        return out

    def convert(obj):
        if isinstance(obj, Scalar):
            return scalar(obj)
        if obj is None or isinstance(obj, (bool, int, str, float)):
            return obj
        if isinstance(obj, Fraction):
            return rational_str(obj)
        if isinstance(obj, Matrix):
            cols = obj.cols
            entries = [scalar(obj.ctx.zero())] * (obj.rows * cols)
            for i, j, c in obj.terms():
                entries[i * cols + j] = scalar(c)
            return {"rows": obj.rows, "cols": cols, "entries": entries}
        if isinstance(obj, (list, tuple)):
            return [convert(x) for x in obj]
        if isinstance(obj, dict):
            return {str(k): convert(v) for k, v in obj.items()}
        if hasattr(obj, "to_jsonable"):
            return convert(obj.to_jsonable())
        raise TypeError(f"cannot serialise {type(obj).__name__}")

    return convert(obj)


def emit_json(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")).encode()


def document(field_ctx, basis_convention: str, payload: dict) -> dict:
    """Standard top-level wrapper for serialised structures."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": {
            "conductor": field_ctx.conductor,
            "cyclotomic_poly": [str(c) for c in field_ctx.poly],
        },
        "basis_convention": basis_convention,
    }
    doc.update(payload)
    return doc
