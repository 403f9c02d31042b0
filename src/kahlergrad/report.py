"""Shared pass/fail bookkeeping for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class BudgetError(Exception):
    """A resource budget (terms or dimension) would be exceeded: the check
    it stops is not applicable, not failed."""


@dataclass
class ReportItem:
    tag: str                 # identity being checked, e.g. "moment-identity"
    params: dict             # indices, weight, degree, ...
    status: str              # pass / fail / not-applicable
    witness: Optional[str] = None

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        s = f"{self.status.upper():14s} {self.tag} [{ps}]"
        if self.witness:
            s += f" :: {self.witness}"
        return s


@dataclass
class VerificationReport:
    items: list = field(default_factory=list)

    def check(self, tag: str, params: dict, ok: bool, witness: str = None):
        self.items.append(
            ReportItem(tag, dict(params), PASS if ok else FAIL, None if ok else witness)
        )

    def skip(self, tag: str, params: dict, reason: str):
        self.items.append(ReportItem(tag, dict(params), NOT_APPLICABLE, reason))

    def extend(self, other: "VerificationReport"):
        self.items.extend(other.items)

    @property
    def passed(self) -> bool:
        return all(it.status != FAIL for it in self.items)

    @property
    def verdict(self) -> str:
        """FAIL if an item failed, else EMPTY if none passed, else PASS."""
        if not self.passed:
            return "FAIL"
        return "PASS" if any(it.status == PASS for it in self.items) else "EMPTY"

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
        for it in self.items:
            out[it.status] += 1
        return out

    def failures(self) -> list:
        return [it for it in self.items if it.status == FAIL]

    def summary(self) -> str:
        c = self.counts()
        return (
            f"{self.verdict}: {c[PASS]} passed, {c[FAIL]} failed, "
            f"{c[NOT_APPLICABLE]} not applicable"
        )

    def to_json_dict(self) -> dict:
        return {
            "summary": self.counts(),
            "passed": self.verdict == "PASS",
            "items": [
                {
                    "tag": it.tag,
                    "params": {k: str(v) for k, v in it.params.items()},
                    "status": it.status,
                    **({"witness": it.witness} if it.witness else {}),
                }
                for it in self.items
            ],
        }
