import pytest

from repro.errors import SchemaError
from repro.minisql import BOOLEAN, Column, INTEGER, TEXT, TableSchema, schema


class TestColumn:
    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "BLOB")

    def test_primary_key_implies_not_null(self):
        column = Column("id", INTEGER, primary_key=True)
        assert not column.nullable

    def test_integer_coercion(self):
        column = Column("n", INTEGER)
        assert column.coerce(5) == 5
        with pytest.raises(SchemaError):
            column.coerce("5")
        with pytest.raises(SchemaError):
            column.coerce(True)  # bool is not INTEGER

    def test_text(self):
        column = Column("t", TEXT)
        assert column.coerce("hello") == "hello"
        with pytest.raises(SchemaError):
            column.coerce(5)

    def test_boolean(self):
        column = Column("b", BOOLEAN)
        assert column.coerce(True) is True
        with pytest.raises(SchemaError):
            column.coerce(1)

    def test_null_handling(self):
        nullable = Column("a", TEXT)
        assert nullable.coerce(None) is None
        strict = Column("b", TEXT, nullable=False)
        with pytest.raises(SchemaError):
            strict.coerce(None)


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            schema(
                "t",
                Column("id", INTEGER, primary_key=True),
                Column("a", TEXT),
                Column("a", TEXT),
            )

    def test_two_primary_keys_rejected(self):
        with pytest.raises(SchemaError):
            schema(
                "t",
                Column("a", INTEGER, primary_key=True),
                Column("b", INTEGER, primary_key=True),
            )

    def test_missing_primary_key_rejected(self):
        with pytest.raises(SchemaError, match="exactly one primary key"):
            schema("t", Column("a", TEXT), Column("b", INTEGER))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=())

    def test_primary_key_lookup(self):
        s = schema("t", Column("id", INTEGER, primary_key=True),
                   Column("x", TEXT))
        assert s.primary_key == "id"

    def test_validate_row_fills_missing_with_null(self):
        s = schema(
            "t", Column("a", TEXT, primary_key=True), Column("b", INTEGER)
        )
        assert s.validate_row({"a": "x"}) == {"a": "x", "b": None}

    def test_validate_row_rejects_unknown_columns(self):
        s = schema("t", Column("a", TEXT, primary_key=True))
        with pytest.raises(SchemaError):
            s.validate_row({"zz": 1})

    def test_roundtrip_via_dict(self):
        s = schema(
            "t",
            Column("id", INTEGER, primary_key=True),
            Column("x", TEXT, nullable=True),
        )
        again = TableSchema.from_dict(s.to_dict())
        assert again == s
