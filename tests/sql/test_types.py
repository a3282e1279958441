"""Value types, coercion, and result-equality tests."""

import pytest

from repro.errors import TypeMismatchError
from repro.sql.types import DataType, coerce, values_equal


class TestDataType:
    def test_from_name_aliases(self):
        assert DataType.from_name("INT") is DataType.INTEGER
        assert DataType.from_name("varchar") is DataType.TEXT
        assert DataType.from_name("DOUBLE") is DataType.REAL
        assert DataType.from_name("DATETIME") is DataType.DATE
        assert DataType.from_name("BOOL") is DataType.BOOLEAN

    def test_unknown_type(self):
        with pytest.raises(TypeMismatchError):
            DataType.from_name("BLOBBY")

    def test_is_numeric(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.REAL.is_numeric
        assert not DataType.TEXT.is_numeric


class TestCoerce:
    def test_null_passes_all_types(self):
        for dtype in DataType:
            assert coerce(None, dtype) is None

    def test_integer_from_string(self):
        assert coerce("42", DataType.INTEGER) == 42

    def test_integer_from_whole_float(self):
        assert coerce(3.0, DataType.INTEGER) == 3

    def test_integer_rejects_fraction_string(self):
        with pytest.raises(TypeMismatchError):
            coerce("3.5x", DataType.INTEGER)

    def test_real_from_int(self):
        assert coerce(2, DataType.REAL) == 2.0
        assert isinstance(coerce(2, DataType.REAL), float)

    def test_text_from_number(self):
        assert coerce(5, DataType.TEXT) == "5"

    def test_boolean_from_strings(self):
        assert coerce("true", DataType.BOOLEAN) is True
        assert coerce("NO", DataType.BOOLEAN) is False

    def test_boolean_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            coerce("maybe", DataType.BOOLEAN)


class TestValuesEqual:
    def test_null_equals_null(self):
        assert values_equal(None, None)
        assert not values_equal(None, 0)

    def test_float_tolerance(self):
        assert values_equal(1.0, 1.0 + 1e-9)
        assert not values_equal(1.0, 1.01)

    def test_strings(self):
        assert values_equal("x", "x")
        assert not values_equal("x", "y")
