"""Shared result type for the proof and derivation checkers, and the
field checks shared by their JSON readers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    path: tuple[int, ...] = ()
    rule: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.ok:
            return "valid"
        loc = "root" if not self.path else "node " + ".".join(map(str, self.path))
        return f"invalid at {loc} ({self.rule}): {self.reason}"


ACCEPT = CheckReport(True)


class InvalidProof(ValueError):
    """Raised when an operation requires a checker-valid input and got none."""

    def __init__(self, report: CheckReport):
        super().__init__(report.message())
        self.report = report


def json_field(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    return obj[name]


def json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r:.80}")
    return value
