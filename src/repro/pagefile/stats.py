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
        # compute_stats leaves NaN (the engine's null) out of the range,
        # but a NaN bound (from an older file) compares false with
        # everything, so it proves nothing either way.
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
    """Compute min/max for a column chunk (None for empty chunks).

    NaN (the engine's null) is left out of a float column's range, so a
    null does not cost the chunk its zone map; an all-NaN chunk has none.
    """
    if len(values) == 0:
        return ColumnStats(minimum=None, maximum=None)
    if field.type == "string":
        strings = [str(v) for v in values]
        return ColumnStats(minimum=min(strings), maximum=max(strings))
    minimum = values.min()
    maximum = values.max()
    if field.type == "float64":
        if minimum != minimum:  # min() propagates NaN: range of the rest
            if np.isnan(values).all():
                return ColumnStats(minimum=None, maximum=None)
            minimum, maximum = np.nanmin(values), np.nanmax(values)
        return ColumnStats(minimum=float(minimum), maximum=float(maximum))
    if field.type == "bool":
        return ColumnStats(minimum=bool(minimum), maximum=bool(maximum))
    return ColumnStats(minimum=int(minimum), maximum=int(maximum))
