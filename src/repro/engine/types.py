"""Value types supported by the local relational engine.

The engine is deliberately small: three scalar types cover everything the
paper's workloads need (tables of random numbers plus string payload
columns used to vary tuple length).  Each type carries a fixed on-disk
width so that table and index sizes — and therefore I/O costs — are well
defined, mirroring how the paper's cost variables (tuple length, table
length) are computed from catalog statistics.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from .errors import TypeError_


class DataType(enum.Enum):
    """Scalar column types."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def python_type(self) -> type:
        """The Python type used to store values of this data type."""
        return _PYTHON_TYPES[self]

    @property
    def default_width(self) -> int:
        """Default storage width in bytes (used when the column omits one)."""
        return _DEFAULT_WIDTHS[self]

    def validate(self, value: Any) -> Any:
        """Coerce *value* to this type, raising :class:`TypeError_` on mismatch.

        Integers are accepted for FLOAT columns (widening), but floats are
        rejected for INT columns to catch accidental truncation.  An INT
        value must fit int64, the dtype of the column's array (sqlite's
        INTEGER has the same bound).  NaN is rejected like NULL: it
        equals nothing, so it has no place in a column's order
        (DESIGN.md §7).
        """
        if value is None:
            raise TypeError_(f"NULL values are not supported (type {self.value})")
        if self is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError_(f"expected int, got {type(value).__name__}: {value!r}")
            if not -(2**63) <= value < 2**63:
                raise TypeError_(f"integer out of int64 range ({value.bit_length()} bits)")
            return int(value)
        if self is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError_(f"expected float, got {type(value).__name__}: {value!r}")
            if value != value:
                raise TypeError_("NaN values are not supported (type float)")
            try:
                return float(value)
            except OverflowError:
                bits = value.bit_length()
                raise TypeError_(f"integer out of float range ({bits} bits)") from None
        if isinstance(value, str):
            return value
        raise TypeError_(f"expected str, got {type(value).__name__}: {value!r}")

    def is_comparable_with(self, other: "DataType") -> bool:
        """Whether values of this type order against values of *other*."""
        numeric = {DataType.INT, DataType.FLOAT}
        if self in numeric and other in numeric:
            return True
        return self is other


def key_split(kind: str, value: Any, side: str) -> Any:
    """A value of the keys' own kind that splits them where *value* does.

    *kind* is a key array's numpy dtype kind.  Under Python's comparison,
    the keys below the returned value are exactly the keys ``< value``
    (*side* ``"left"``) or ``<= value`` (``"right"``), so numpy can
    compare or search with it in the keys' own dtype.  A float against
    int keys becomes its ceiling (left) or floor (right), an infinity
    staying as it is; an int against float keys becomes the float next
    above it (left) or below it (right) when float64 cannot hold it.
    Any other value splits its keys as it is.
    """
    if kind == "i" and isinstance(value, float):
        if math.isinf(value):
            return value
        return math.ceil(value) if side == "left" else math.floor(value)
    if kind == "f" and isinstance(value, int):
        try:
            near = float(value)
        except OverflowError:
            near = math.inf if value > 0 else -math.inf
        if side == "left" and near < value:
            return math.nextafter(near, math.inf)
        if side == "right" and near > value:
            return math.nextafter(near, -math.inf)
        return near
    return value


_PYTHON_TYPES = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STR: str,
}

_DEFAULT_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.STR: 32,
}

#: A row is a plain tuple of scalar values, positionally matching the schema.
Row = tuple
