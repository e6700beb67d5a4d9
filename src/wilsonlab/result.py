"""Check results: one verified congruence instance."""

from __future__ import annotations

from fractions import Fraction

from .padic import Frozen

Side = int | Fraction | None

_set = object.__setattr__

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CongruenceCheckResult(Frozen):
    """Outcome of one congruence check at one prime (or one index).

    ``lhs``/``rhs`` are the two compared values reduced to the reported
    modulus; pass means they are equal there. ``reason`` carries the skip
    cause, the error name and message for an error-fail, or the offending
    sub-case of an aggregate check.
    """

    __slots__ = _fields = ("check_id", "p", "mod_exp", "lhs", "rhs", "status", "reason")

    def __init__(self, check_id: str, p: int, mod_exp: int, lhs: Side, rhs: Side,
                 status: str, reason: str = ""):
        # field by field, not through _init's loop: every row of a run is made here
        _set(self, "check_id", check_id)
        _set(self, "p", p)
        _set(self, "mod_exp", mod_exp)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "status", status)
        _set(self, "reason", reason)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def status_text(self) -> str:
        if self.reason and self.status != PASS:
            return f"{self.status}({self.reason})"
        return self.status


def skipped(check_id: str, p: int, mod_exp: int, reason: str) -> CongruenceCheckResult:
    return CongruenceCheckResult(check_id, p, mod_exp, None, None, SKIPPED, reason)


def error_fail(check_id: str, p: int, mod_exp: int, exc: BaseException) -> CongruenceCheckResult:
    reason = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    return CongruenceCheckResult(check_id, p, mod_exp, None, None, FAIL, reason)
