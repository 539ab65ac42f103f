"""Shared result type for the proof and derivation checkers, and the
field checks shared by their JSON readers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    """A checker's verdict.  A failure names the first failing node: its
    path of premise indices from the root, its rule and the reason.  A
    valid sequent proof's report also says whether the proof is cut-free
    and gives its depth and its size as a tree, from the checking walk;
    these are None in every other report."""

    ok: bool
    path: tuple[int, ...] = ()
    rule: str | None = None
    reason: str | None = None
    cut_free: bool | None = None
    depth: int | None = None
    tree_size: int | None = None

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
