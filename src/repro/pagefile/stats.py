"""Per-row-group column statistics (zone maps).

Each row group records min/max per column.  The scan path uses them to
skip row groups that cannot satisfy a predicate — the reproduction's
analogue of the Z-order/zone-map pruning the paper relies on for
range-based retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.pagefile.schema import Field


@dataclass(frozen=True)
class ColumnStats:
    """Min/max statistics for one column within one row group."""

    minimum: Any
    maximum: Any

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"min": self.minimum, "max": self.maximum}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ColumnStats":
        """Inverse of :meth:`to_dict`."""
        return cls(minimum=raw["min"], maximum=raw["max"])

    def may_contain(self, op: str, literal: Any) -> bool:
        """Whether rows matching ``column <op> literal`` can exist here.

        Conservative: returns True whenever pruning is not provably safe.
        """
        if self.minimum is None or self.maximum is None:
            return True
        # NaN (the engine's null) poisons a float column's min/max and
        # compares false with everything, so it proves nothing either way.
        if self.minimum != self.minimum or self.maximum != self.maximum:
            return True
        if literal != literal:
            return True
        if op == "==":
            return self.minimum <= literal <= self.maximum
        if op == "<":
            return self.minimum < literal
        if op == "<=":
            return self.minimum <= literal
        if op == ">":
            return self.maximum > literal
        if op == ">=":
            return self.maximum >= literal
        return True


def compute_stats(field: Field, values: np.ndarray) -> ColumnStats:
    """Compute min/max for a column chunk (None for empty chunks)."""
    if len(values) == 0:
        return ColumnStats(minimum=None, maximum=None)
    if field.type == "string":
        ordered = sorted(str(v) for v in values)
        return ColumnStats(minimum=ordered[0], maximum=ordered[-1])
    minimum = values.min()
    maximum = values.max()
    if field.type == "float64":
        return ColumnStats(minimum=float(minimum), maximum=float(maximum))
    if field.type == "bool":
        return ColumnStats(minimum=bool(minimum), maximum=bool(maximum))
    return ColumnStats(minimum=int(minimum), maximum=int(maximum))
