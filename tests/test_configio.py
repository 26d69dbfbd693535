"""Spec-file parsing and round-trip CSV serialization."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import read_csv
from mvflow.configio import (config_hash, format_csv, format_kv, parse_kv,
                             read_spec, write_csv)
from mvflow.errors import DomainError, SpecParseError


def test_parse_kv_basic():
    text = """
# a comment
name = demo

grid.n = 96
checks = energy,lemmas
"""
    cfg = parse_kv(text)
    assert cfg == {"name": "demo", "grid.n": "96", "checks": "energy,lemmas"}


def test_parse_kv_value_may_contain_equals():
    cfg = parse_kv("note = a=b=c\n")
    assert cfg["note"] == "a=b=c"


def test_parse_kv_missing_equals_reports_line():
    with pytest.raises(SpecParseError, match="line 3"):
        parse_kv("a = 1\n\nnot a pair\n", source="f.spec")


def test_parse_kv_bad_key():
    with pytest.raises(SpecParseError, match="bad key"):
        parse_kv("two words = 1\n")


def test_parse_kv_empty_value():
    with pytest.raises(SpecParseError, match="empty value"):
        parse_kv("a =\n")


def test_parse_kv_duplicate_key():
    with pytest.raises(SpecParseError, match="duplicate field 'a'"):
        parse_kv("a = 1\na = 2\n")


def test_read_spec_requires_schema(tmp_path):
    p = tmp_path / "s.spec"
    p.write_text("name = x\n")
    with pytest.raises(SpecParseError, match="schema"):
        read_spec(str(p))


def test_read_spec_rejects_future_schema(tmp_path):
    p = tmp_path / "s.spec"
    p.write_text("schema = 2\nname = x\n")
    with pytest.raises(SpecParseError, match="unsupported"):
        read_spec(str(p))


def test_read_spec_round_trip(tmp_path):
    cfg = {"schema": "1", "name": "demo", "solver.lam": "0.1"}
    p = tmp_path / "s.spec"
    p.write_text(format_kv(cfg))
    assert read_spec(str(p)) == cfg


def test_format_kv_rejects_comment_marker_in_value():
    with pytest.raises(DomainError):
        format_kv({"a": "x # y"})


def test_format_kv_rejects_newline_in_value():
    with pytest.raises(DomainError):
        format_kv({"a": "x\ny"})


def test_config_hash_order_independent():
    a = {"x": "1", "y": "2"}
    b = {"y": "2", "x": "1"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": "1", "y": "3"})


def test_csv_round_trip_mixed_types(tmp_path):
    header = ["id", "value", "ok", "count"]
    rows = [("a", 0.1 + 0.2, True, 3), ("b", -1.5e-17, False, -2)]
    p = tmp_path / "t.csv"
    write_csv(str(p), header, rows)
    hdr, back = read_csv(str(p))
    assert hdr == header
    assert back == rows  # exact, including the float bits


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_float_cells_round_trip_exactly(x):
    text = format_csv(["v"], [(x,)])
    cell = text.splitlines()[1]
    assert float(cell) == x
    assert math.copysign(1.0, float(cell)) == math.copysign(1.0, x)


def test_format_csv_row_width_mismatch():
    with pytest.raises(DomainError, match="width"):
        format_csv(["a", "b"], [(1,)])


def test_format_csv_rejects_comma_in_string_cell():
    with pytest.raises(DomainError):
        format_csv(["a"], [("x,y",)])


def test_read_csv_width_mismatch_reports_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(SpecParseError, match="line 3"):
        read_csv(str(p))


def test_read_csv_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(SpecParseError, match="empty"):
        read_csv(str(p))
