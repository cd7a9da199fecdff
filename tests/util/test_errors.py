"""Tests for the typed scenario-block reader: schemas derived from a
constructor, value validation, and what cannot be a schema."""

import enum

import pytest

from repro.core.config import EngineConfig
from repro.madeleine.message import PackMode
from repro.util.errors import REQUIRED, ConfigurationError, read_block, schema_of


class _Shade(enum.Enum):
    DARK = "dark"
    LIGHT = "light"


class _Knobs:
    def __init__(
        self,
        count: int,
        rate: float = 1.0,
        label: str | None = None,
        on: bool = True,
        shade: _Shade = _Shade.DARK,
        nodes: list[str] = (),
        limit: int | None = 8,
    ) -> None:
        self.values = dict(
            count=count, rate=rate, label=label, on=on, shade=shade, nodes=nodes, limit=limit
        )


class TestSchemaLookup:
    def test_keys_defaults_and_kinds_come_from_the_signature(self):
        schema = schema_of(_Knobs)
        assert list(schema) == ["count", "rate", "label", "on", "shade", "nodes", "limit"]
        assert schema["count"] == ((int,), REQUIRED)
        assert schema["rate"] == ((float,), 1.0)
        assert schema["label"] == ((str, type(None)), None)
        assert schema["shade"] == (_Shade, _Shade.DARK)
        assert schema["nodes"] == ((list,), ())
        assert schema["limit"] == ((int, type(None)), 8)

    def test_computed_once_per_class(self):
        assert schema_of(EngineConfig) is schema_of(EngineConfig)

    def test_dataclass_fields_are_the_keys(self):
        assert set(schema_of(EngineConfig)) == {
            "lookahead_window", "nagle_delay", "nagle_min_bytes", "stripe_chunk",
            "search_budget", "rail_binding", "rdv_timeout",
        }


class TestValidation:
    def test_absent_keys_take_their_defaults(self):
        values = read_block({"count": 3}, _Knobs, "knobs")
        assert values == {
            "count": 3, "rate": 1.0, "label": None, "on": True, "shade": _Shade.DARK,
            "nodes": (), "limit": 8,
        }

    def test_an_int_is_a_float_and_a_tuple_is_a_list(self):
        values = read_block({"count": 1, "rate": 2, "nodes": ("a", "b")}, _Knobs, "knobs")
        assert values["rate"] == 2.0 and isinstance(values["rate"], float)
        assert values["nodes"] == ("a", "b")

    def test_an_enum_is_read_by_value(self):
        assert read_block({"count": 1, "shade": "light"}, _Knobs, "k")["shade"] is _Shade.LIGHT
        assert read_block({"count": 1, "shade": _Shade.LIGHT}, _Knobs, "k")["shade"] is _Shade.LIGHT

    def test_none_where_the_kind_allows_it(self):
        assert read_block({"count": 1, "limit": None}, _Knobs, "k")["limit"] is None
        with pytest.raises(ConfigurationError, match=r"k\.count must be an integer, got None"):
            read_block({"count": None}, _Knobs, "k")

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("count", 2.5, "k.count must be an integer, got 2.5"),
            ("count", True, "k.count must be an integer, got True"),
            ("count", "3", "k.count must be an integer, got '3'"),
            ("rate", "fast", "k.rate must be a number, got 'fast'"),
            ("rate", False, "k.rate must be a number, got False"),
            ("label", 7, "k.label must be a string, got 7"),
            ("on", "false", "k.on must be true or false, got 'false'"),
            ("nodes", "n0", "k.nodes must be a list, got 'n0'"),
            ("limit", 1.5, "k.limit must be an integer, got 1.5"),
            ("shade", "grey", "k.shade must be one of ['dark', 'light'], got 'grey'"),
        ],
    )
    def test_a_wrong_kind_names_its_key(self, key, value, text):
        block = {"count": 1, key: value}
        with pytest.raises(ConfigurationError) as refused:
            read_block(block, _Knobs, "k")
        assert str(refused.value) == text

    def test_a_required_key_must_be_given(self):
        with pytest.raises(ConfigurationError, match="k needs 'count'"):
            read_block({}, _Knobs, "k")

    def test_an_unknown_key_is_named(self):
        with pytest.raises(ConfigurationError, match="unknown k key 'cuont'"):
            read_block({"count": 1, "cuont": 1}, _Knobs, "k")

    def test_a_block_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match=r"k must be an object, got \[\]"):
            read_block([], _Knobs, "k")

    def test_a_hand_schema_reads_alike(self):
        schema = {"until": (float, None), "rank": (int, REQUIRED)}
        assert read_block({"rank": 2}, schema, "run") == {"until": None, "rank": 2}
        with pytest.raises(ConfigurationError, match=r"run\.until must be a number"):
            read_block({"rank": 2, "until": "soon"}, schema, "run")


class TestNoSchema:
    def test_an_annotation_with_no_kind_is_a_programming_error(self):
        class Opaque:
            def __init__(self, handler: dict[str, int] = None) -> None:
                pass

        with pytest.raises(TypeError, match="no scenario kind"):
            schema_of(Opaque)

    def test_an_enum_in_a_union_has_no_kind(self):
        class Maybe:
            def __init__(self, mode: PackMode | None = None) -> None:
                pass

        with pytest.raises(TypeError, match="no scenario kind"):
            schema_of(Maybe)
