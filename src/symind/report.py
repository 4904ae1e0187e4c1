"""The toolkit's universal output record."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import __version__

INFINITE = "Infinite"
UNDETERMINED = "Undetermined"


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "item"):  # numpy scalar
        return x.item()
    if hasattr(x, "tolist"):
        return x.tolist()
    return x


@dataclass
class IndexReport:
    """Which index was computed, its verdict, and how it was obtained.

    ``verdict`` is an integer for a finite answer, or the strings "Infinite" /
    "Undetermined"; an undetermined verdict always carries a reason.
    """

    command: str
    verdict: object
    reason: str | None = None
    conjugate_points: list = field(default_factory=list)
    crossings: list = field(default_factory=list)
    assumptions: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == UNDETERMINED and not self.reason:
            raise ValueError("an Undetermined verdict requires a reason")
        self.provenance.setdefault("toolkit_version", __version__)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "verdict": _jsonable(self.verdict),
            "reason": self.reason,
            "conjugate_points": _jsonable(self.conjugate_points),
            "crossings": _jsonable(self.crossings),
            "assumptions": _jsonable(self.assumptions),
            "diagnostics": _jsonable(self.diagnostics),
            "provenance": _jsonable(self.provenance),
        }

    def to_json(self) -> str:
        """Deterministic serialization: same inputs give byte-identical output."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def config_hash(config: dict) -> str:
    blob = json.dumps(_jsonable(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
