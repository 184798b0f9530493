import math
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcpsync.trace as trace_mod
from tcpsync.trace import Trace

from oracles import reference_write_csv, reference_write_json


def test_validation():
    with pytest.raises(ValueError):
        Trace(0.0, 0.0, {"x": [1.0]})
    with pytest.raises(ValueError):
        Trace(0.0, 0.1, {"x": [1.0, 2.0], "y": [1.0]})
    with pytest.raises(ValueError):
        Trace(0.0, 0.1, {})


def test_time_axis_and_tail():
    tr = Trace(1.0, 0.5, {"x": np.arange(5, dtype=float)})
    assert np.allclose(tr.t, [1.0, 1.5, 2.0, 2.5, 3.0])
    assert tr.duration == pytest.approx(2.0)
    assert list(tr.tail(0.4)["x"]) == [2.0, 3.0, 4.0]


def test_json_roundtrip(tmp_path):
    tr = Trace(0.0, 0.25, {"a": [1.0, 2.5, -3.125], "b": [0.1, 0.2, 0.3],
                           "c": [math.nan, math.inf, -math.inf]},
               {"model": "demo", "seed": 3})
    path = tmp_path / "t.json"
    tr.write_json(path)
    assert "NaN,\n   Infinity,\n   -Infinity" in path.read_text()  # json's spelling
    back = Trace.from_json(path)
    assert back.dt == tr.dt
    assert back.meta == tr.meta
    for name in tr.data:
        assert np.array_equal(back.data[name], tr.data[name], equal_nan=True)


def test_csv_layout_and_determinism(tmp_path):
    tr = Trace(0.0, 0.5, {"b": [1.0, 2.0], "a": [3.0, 4.0]})
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    tr.write_csv(p1)
    tr.write_csv(p2)
    text = p1.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,a,b"  # sorted channel names after the time column
    assert lines[1] == "0.0,3.0,1.0"
    assert p1.read_bytes() == p2.read_bytes()


SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
           1e-310, 1e300, -1e-300, 0.1, 1.0 / 3.0]
# meta text that looks like the writer's own layout
LAYOUT_TEXT = ['{\n "data": {', '\n  "x": [\n   ', ",\n   ", "\n  ]", "\n },\n", "[]",
               "NaN", "Infinity", '"', "\\", "é✓\U0001f600", '"data"', '"t0": 0.0']
JSON_TEXT = st.sampled_from(LAYOUT_TEXT) | st.text(max_size=12)
META = st.dictionaries(
    JSON_TEXT,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)
NAME_CHARS = string.ascii_letters + string.digits + '_ "\\'
NAMES = st.lists(st.text(alphabet=NAME_CHARS, min_size=1, max_size=6), min_size=1, max_size=5,
                 unique=True)


def random_column(rng, n):
    """Random bit patterns (subnormals, extremes, NaN payloads, +-inf) with
    the special values scattered over them."""
    col = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    if n:
        pos = rng.integers(0, n, size=min(n, 64))
        col[pos] = rng.choice(SPECIAL, size=len(pos))
    return col


def assert_writers_match_reference(tr, d):
    for write, ref, suffix in ((Trace.write_csv, reference_write_csv, "csv"),
                               (Trace.write_json, reference_write_json, "json")):
        write(tr, d / f"new.{suffix}")
        ref(tr, d / f"ref.{suffix}")
        assert (d / f"new.{suffix}").read_bytes() == (d / f"ref.{suffix}").read_bytes()


@settings(max_examples=150)
@given(block=st.integers(1, 4), data=st.data())
def test_streamed_writers_match_reference_bytes(block, data, tmp_path_factory):
    # a small block puts lengths 0, 1 and around one and two blocks in reach
    n = data.draw(st.integers(0, 2 * block + 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = {}
    for name in data.draw(NAMES):
        cols[name] = random_column(rng, n)
        head = data.draw(st.lists(st.floats(), max_size=n))
        cols[name][:len(head)] = head
    t0 = data.draw(st.floats(-1e6, 1e6) | st.integers(-5, 5))
    dt = data.draw(st.floats(1e-9, 1e3) | st.integers(1, 5))
    tr = Trace(t0, dt, cols, data.draw(META))
    with mock.patch.object(trace_mod, "_BLOCK_ROWS", block):
        assert_writers_match_reference(tr, tmp_path_factory.mktemp("w"))


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
def test_streamed_writers_match_reference_at_block_edges(blocks, extra, tmp_path):
    n = blocks * trace_mod._BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    tr = Trace(-0.5, 1e-3, {"w2": random_column(rng, n), "w1": random_column(rng, n)},
               {"model": "edge", "seed": n})
    assert_writers_match_reference(tr, tmp_path)
