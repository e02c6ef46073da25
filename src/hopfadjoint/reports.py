"""Verification reports and canonical JSON serialisation.

Every checker in this package returns a VerificationReport: a list of
claims with pass/fail status and, for failures, a witness that can be
replayed.  Reports serialise to canonical JSON (sorted keys, rationals
as "num/den" strings) so identical runs produce identical bytes.

`emit_json` streams that text into a binary file in one recursive
pass, with no intermediate plain-data tree and no copy of the whole
document: each chunk is written as it is made, each distinct scalar is
encoded once per document, a matrix is laid out from its nonzero terms
over references to the zero's text, and a dense list writes its padding
by reference.  The tests keep the walk it replaced, a plain tree that
`json.dumps` encodes, as the oracle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


def emit_json(obj, fh) -> None:
    """Write the canonical JSON of obj to the binary file fh: sorted
    keys, no whitespace, ASCII.  Each chunk is written as soon as it is
    made, together with the separator, bracket or key before it, so the
    largest text held at once is one matrix's entries or one list that
    starts with a scalar.  Such a list writes the field's shared
    `ctx.zero()` by identity; every other scalar, a computed zero
    included, goes through the memo of encoded values."""
    memo: dict[tuple[tuple[int, ...], int], str] = {}

    def scalar(s: Scalar) -> str:
        key = (s.num, s.den)
        encoded = memo.get(key)
        if encoded is None:
            encoded = memo[key] = "[" + ",".join(map(encode_basestring_ascii, scalar_to_strings(s))) + "]"
        return encoded

    def text(x) -> str:
        """The JSON text of x as one string, for an item of a list that
        starts with a scalar."""
        if isinstance(x, Scalar):
            return scalar(x)
        parts: list[str] = []
        write(x, parts.append)
        return "".join(parts)

    def write(x, put, lead: str = "") -> None:
        """Write x through put, its first chunk prefixed by lead: the
        separator, bracket or key that comes before it."""
        # the containers first; bool before int
        if isinstance(x, Scalar):
            put(lead + scalar(x))
        elif isinstance(x, (list, tuple)):
            if x and isinstance(x[0], Scalar):
                zero = x[0].ctx.zero()
                padding = scalar(zero)
                put(lead + "[" + ",".join([padding if y is zero else text(y) for y in x]) + "]")
                return
            sep = lead + "["
            for y in x:
                write(y, put, sep)
                sep = ","
            put("]" if x else lead + "[]")
        elif isinstance(x, dict):
            items = {str(k): v for k, v in x.items()}
            sep = lead + "{"
            for key in sorted(items):
                write(items[key], put, sep + encode_basestring_ascii(key) + ":")
                sep = ","
            put("}" if items else lead + "{}")
        elif isinstance(x, str):
            put(lead + encode_basestring_ascii(x))
        elif isinstance(x, Matrix):
            cols = x.cols
            entries = [scalar(x.ctx.zero())] * (x.rows * cols)
            for i, j, c in x.terms():
                entries[i * cols + j] = scalar(c)
            put(f'{lead}{{"cols":{cols},"entries":[')
            put(",".join(entries))
            put(f'],"rows":{x.rows}}}')
        elif x is None:
            put(lead + "null")
        elif isinstance(x, bool):
            put(lead + ("true" if x else "false"))
        elif isinstance(x, int):
            put(lead + int.__repr__(x))
        elif isinstance(x, float):
            put(lead + json.dumps(x))
        elif isinstance(x, Fraction):
            put(lead + encode_basestring_ascii(rational_str(x)))
        elif hasattr(x, "to_jsonable"):
            write(x.to_jsonable(), put, lead)
        else:
            raise TypeError(f"cannot serialise {type(x).__name__}")

    write(obj, lambda chunk: fh.write(chunk.encode()))


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
