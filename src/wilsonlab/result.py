"""Check results: one verified congruence instance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .padic import TrackedResidue

Side = Union[int, Fraction, None]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CongruenceCheckResult:
    """Outcome of one congruence check at one prime (or one index).

    ``lhs``/``rhs`` are the two compared values reduced to the reported
    modulus; pass means they are equal there. ``reason`` carries the skip
    cause, the error name and message for an error-fail, or the offending
    sub-case of an aggregate check.
    """

    check_id: str
    p: int
    mod_exp: int
    lhs: Side
    rhs: Side
    status: str
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def status_text(self) -> str:
        if self.reason and self.status != PASS:
            return f"{self.status}({self.reason})"
        return self.status


def from_residues(
    check_id: str,
    p: int,
    mod_exp: int,
    lhs: TrackedResidue,
    rhs: TrackedResidue,
    reason_on_fail: str = "",
) -> CongruenceCheckResult:
    """Compare two tracked residues at precision mod_exp."""
    a = lhs.truncate(mod_exp)
    b = rhs.truncate(mod_exp)
    ok = a.residue == b.residue
    return CongruenceCheckResult(
        check_id, p, mod_exp, a.residue, b.residue,
        PASS if ok else FAIL, "" if ok else reason_on_fail,
    )


def from_values(
    check_id: str,
    p: int,
    mod_exp: int,
    lhs: Side,
    rhs: Side,
    reason_on_fail: str = "",
) -> CongruenceCheckResult:
    ok = lhs == rhs
    return CongruenceCheckResult(
        check_id, p, mod_exp, lhs, rhs, PASS if ok else FAIL,
        "" if ok else reason_on_fail,
    )


def skipped(check_id: str, p: int, mod_exp: int, reason: str) -> CongruenceCheckResult:
    return CongruenceCheckResult(check_id, p, mod_exp, None, None, SKIPPED, reason)


def error_fail(check_id: str, p: int, mod_exp: int, exc: BaseException) -> CongruenceCheckResult:
    reason = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    return CongruenceCheckResult(check_id, p, mod_exp, None, None, FAIL, reason)
