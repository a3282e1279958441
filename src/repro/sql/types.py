"""SQL value types, coercion, and result-cell equality.

Values are represented with native Python objects: ``None`` (NULL), ``int``,
``float``, ``str``, ``bool``. Dates are ISO-8601 strings (``YYYY-MM-DD`` or
``YYYY-MM-DD HH:MM:SS``), which order correctly under string comparison —
the same convention SQLite uses for TEXT dates.
"""

from __future__ import annotations

import enum
import math
from typing import Union

from repro.errors import TypeMismatchError

SqlValue = Union[int, float, str, bool, None]


class DataType(enum.Enum):
    """Declared column types."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Map a SQL type keyword (e.g. VARCHAR, INT) to a DataType."""
        upper = name.upper()
        mapping = {
            "INTEGER": cls.INTEGER,
            "INT": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "NUMERIC": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "DATE": cls.DATE,
            "DATETIME": cls.DATE,
            "TIMESTAMP": cls.DATE,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if upper not in mapping:
            raise TypeMismatchError(f"unknown SQL type {name!r}")
        return mapping[upper]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.REAL)


#: The Python type a stored value of each declared type already has.
NATIVE_TYPES = {
    DataType.INTEGER: int,
    DataType.REAL: float,
    DataType.TEXT: str,
    DataType.DATE: str,
    DataType.BOOLEAN: bool,
}


def coerce(value: SqlValue, dtype: DataType) -> SqlValue:
    """Coerce ``value`` into the Python representation for ``dtype``.

    NULL passes through every type. Raises
    :class:`~repro.errors.TypeMismatchError` for impossible coercions.
    """
    if value is None or type(value) is NATIVE_TYPES[dtype]:
        return value
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise TypeMismatchError(
                    f"cannot store {value!r} in an INTEGER column"
                ) from exc
        raise TypeMismatchError(f"cannot store {value!r} in an INTEGER column")
    if dtype is DataType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise TypeMismatchError(
                    f"cannot store {value!r} in a REAL column"
                ) from exc
        raise TypeMismatchError(f"cannot store {value!r} in a REAL column")
    if dtype in (DataType.TEXT, DataType.DATE):
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1", "yes"):
                return True
            if lowered in ("false", "f", "0", "no"):
                return False
            raise TypeMismatchError(f"cannot store {value!r} in a BOOLEAN column")
        raise TypeMismatchError(f"cannot store {value!r} in a BOOLEAN column")
    raise TypeMismatchError(f"unsupported data type {dtype}")  # pragma: no cover


def values_equal(left: SqlValue, right: SqlValue, float_tol: float = 1e-6) -> bool:
    """NULL-aware equality used by result comparison: two NULL cells count
    as equal, as result sets need (SQL's own ``=`` says unknown)."""
    if left is None and right is None:
        return True
    if left is None or right is None:
        return False
    # bool is an int here, so TRUE equals 1.
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        left_n, right_n = float(left), float(right)
        # Equal first: ``inf - inf`` is NaN, which no tolerance accepts.
        if left_n == right_n:
            return True
        # An infinite value equals only itself: its tolerance is infinite.
        if math.isinf(left_n) or math.isinf(right_n):
            return False
        return abs(left_n - right_n) <= float_tol * max(1.0, abs(left_n), abs(right_n))
    return str(left) == str(right)
