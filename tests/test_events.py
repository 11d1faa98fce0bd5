from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect import _native
from evrect.errors import DataError
from evrect.events import (
    NMNIST_GEOMETRY,
    Event,
    EventStream,
    SensorGeometry,
    _parse_lines,
    parse_csv,
    parse_nmnist_bin,
    write_csv,
)

GEO = SensorGeometry()


def test_parse_csv_two_events_same_pixel():
    stream = parse_csv("3,4,100,1\n3,4,250,0", GEO)
    assert len(stream) == 2
    assert stream[0] == Event(3, 4, 100, 1)
    assert stream[1] == Event(3, 4, 250, 0)


def test_parse_csv_timestamp_regression_reports_line():
    with pytest.raises(DataError, match="line 2"):
        parse_csv("3,4,250,1\n3,4,100,0", GEO)


def test_parse_csv_bounds_error():
    with pytest.raises(DataError, match="line 1"):
        parse_csv("300,4,100,1", GEO)


def test_parse_csv_malformed_line_number():
    with pytest.raises(DataError, match="line 3"):
        parse_csv("1,1,5,0\n1,1,6,0\n1,1\n", GEO)
    with pytest.raises(DataError, match="non-integer"):
        parse_csv("1,1,x,0", GEO)


def test_parse_csv_accepts_bytes_and_blank_lines():
    stream = parse_csv(b"1,2,3,0\n\n4,5,6,1\n", GEO)
    assert len(stream) == 2
    for data in (bytearray(b"1,2,3,0\r\n"), memoryview(b"1,2,3,0\r\n")):
        assert len(parse_csv(data, GEO)) == 1


def test_parse_csv_bad_polarity():
    with pytest.raises(DataError, match="polarity"):
        parse_csv("1,1,5,2", GEO)


def test_parse_nmnist_bin_single_record():
    stream = parse_nmnist_bin(bytes([0x05, 0x07, 0x80, 0x00, 0x64]))
    assert stream.geometry == NMNIST_GEOMETRY
    assert stream[0] == Event(5, 7, 100, 1)


def test_parse_nmnist_bin_all_zero_record():
    stream = parse_nmnist_bin(bytes(5))
    assert stream[0] == Event(0, 0, 0, 0)


def test_parse_nmnist_bin_truncated():
    with pytest.raises(DataError, match="truncated"):
        parse_nmnist_bin(bytes(7))


def test_parse_nmnist_bin_timestamp_field_width(rng):
    n = 500
    ts = np.sort(rng.integers(0, 1 << 23, size=n))
    recs = bytearray()
    for i in range(n):
        t = int(ts[i])
        recs += bytes(
            [
                int(rng.integers(0, 34)),
                int(rng.integers(0, 34)),
                (int(rng.integers(0, 2)) << 7) | ((t >> 16) & 0x7F),
                (t >> 8) & 0xFF,
                t & 0xFF,
            ]
        )
    stream = parse_nmnist_bin(bytes(recs))
    assert np.array_equal(stream.t, ts)
    assert stream.t.max() < (1 << 23)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 239),
            st.integers(0, 179),
            st.integers(0, 10_000),
            st.integers(0, 1),
        ),
        max_size=40,
    )
)
def test_csv_round_trip(events):
    events = sorted(events, key=lambda e: e[2])
    stream = EventStream.from_events(GEO, events)
    again = parse_csv(write_csv(stream), GEO)
    assert np.array_equal(again.x, stream.x)
    assert np.array_equal(again.y, stream.y)
    assert np.array_equal(again.t, stream.t)
    assert np.array_equal(again.p, stream.p)


def test_write_csv_empty_stream():
    stream = EventStream.from_events(GEO, [])
    assert write_csv(stream) == ""
    assert len(parse_csv("", GEO)) == 0


def test_stream_validation_errors():
    with pytest.raises(DataError, match="outside"):
        EventStream.from_events(GEO, [(250, 0, 0, 0)])
    with pytest.raises(DataError, match="regression"):
        EventStream.from_events(GEO, [(0, 0, 10, 0), (0, 0, 5, 0)])
    with pytest.raises(DataError, match="polarity"):
        EventStream.from_events(GEO, [(0, 0, 10, 7)])
    with pytest.raises(DataError, match="negative"):
        EventStream.from_events(GEO, [(0, 0, -3, 0)])


def test_stream_slice_and_iteration():
    stream = EventStream.from_events(GEO, [(1, 2, 10, 0), (3, 4, 20, 1), (5, 6, 30, 0)])
    sub = stream.slice(np.asarray([0, 2]))
    assert [e.x for e in sub] == [1, 5]
    assert len(sub) == 2


def test_geometry_must_be_positive():
    with pytest.raises(DataError):
        SensorGeometry(n_rows=0, n_cols=10)


# Each takes the fields of one line and returns the line's new text.
_FIELD_MUTATIONS = {
    "space": lambda f, i: ",".join(f[:i] + [" " + f[i]] + f[i + 1:]),
    "trailing space": lambda f, i: ",".join(f) + " ",
    "plus sign": lambda f, i: ",".join(f[:i] + ["+" + f[i]] + f[i + 1:]),
    "minus sign": lambda f, i: ",".join(f[:i] + ["-" + f[i]] + f[i + 1:]),
    "underscore": lambda f, i: ",".join(f[:i] + [f[i][0] + "_" + f[i] if f[i] != "0" else "1_0"] + f[i + 1:]),
    "leading zeros": lambda f, i: ",".join(f[:i] + ["00" + f[i]] + f[i + 1:]),
    "19 digits": lambda f, i: ",".join(f[:i] + ["1" + "0" * 18] + f[i + 1:]),
    "18 digits": lambda f, i: ",".join(f[:i] + ["9" * 18] + f[i + 1:]),
    "past int64": lambda f, i: ",".join(f[:i] + ["9" * 19] + f[i + 1:]),
    "20 digits": lambda f, i: ",".join(f[:i] + ["0" * 19 + f[i]] + f[i + 1:]),
    "extra field": lambda f, i: ",".join(f + ["0"]),
    "missing field": lambda f, i: ",".join(f[:i] + f[i + 1:]),
    "empty field": lambda f, i: ",".join(f[:i] + [""] + f[i + 1:]),
    "letter": lambda f, i: ",".join(f[:i] + [f[i] + "x"] + f[i + 1:]),
    "non-ascii digit": lambda f, i: ",".join(f[:i] + ["\u0663"] + f[i + 1:]),
    "x out of range": lambda f, i: ",".join(["240"] + f[1:]),
    "y out of range": lambda f, i: ",".join(f[:1] + ["180"] + f[2:]),
    "polarity 2": lambda f, i: ",".join(f[:3] + ["2"]),
    "timestamp regression": lambda f, i: ",".join(f[:2] + ["0"] + f[3:]),
}
# Each takes the list of lines and a line index and returns the whole text.
_TEXT_MUTATIONS = {
    "none": lambda lines, j: "\n".join(lines) + "\n",
    "no final newline": lambda lines, j: "\n".join(lines),
    "blank line": lambda lines, j: "\n".join(lines[:j] + [""] + lines[j:]) + "\n",
    "whitespace line": lambda lines, j: "\n".join(lines[:j] + [" \t"] + lines[j:]) + "\n",
    "crlf": lambda lines, j: "\r\n".join(lines) + "\r\n",
    "one crlf": lambda lines, j: "\n".join(lines[:j] + [lines[j] + "\r"] + lines[j + 1:]) + "\n",
    "lone cr": lambda lines, j: "\r".join(lines) + "\r",
    "double newline at end": lambda lines, j: "\n".join(lines) + "\n\n",
}


def _outcome(parse, data):
    try:
        s = parse(data, GEO)
    except DataError as exc:
        return "error", str(exc)
    return "ok", [a.tolist() for a in (s.x, s.y, s.t, s.p)]


@contextmanager
def python_kernels():
    """Run the block as on a host where the kernels cannot be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        yield


def _both_paths_match_line_parser(data):
    """``parse_csv`` gives the line parser's outcome, with the C kernel and
    without the kernels."""
    want = _outcome(_parse_lines, data)
    assert _outcome(parse_csv, data) == want
    with python_kernels():
        assert _outcome(parse_csv, data) == want


def _kernel(data: bytes):
    """The C kernel's columns for ``data``, or None where it rejects it;
    the test is skipped where the kernels cannot be built."""
    if _native.load() is None:
        pytest.skip("no C kernels here: the line parser is the only path")
    return _native.parse_csv(data, GEO.n_rows, GEO.n_cols)


@settings(max_examples=400, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 239), st.integers(0, 179), st.integers(0, 10**6), st.integers(0, 1)),
        min_size=1,
        max_size=12,
    ),
    text_mutation=st.sampled_from(sorted(_TEXT_MUTATIONS)),
    field_mutation=st.sampled_from(["none"] + sorted(_FIELD_MUTATIONS)),
    where=st.integers(0, 10**6),
    as_bytes=st.booleans(),
)
def test_fast_parse_matches_line_parser(events, text_mutation, field_mutation, where, as_bytes):
    events = sorted(events, key=lambda e: e[2])
    lines = [f"{x},{y},{t},{p}" for x, y, t, p in events]
    j = where % len(lines)
    if field_mutation != "none":
        lines[j] = _FIELD_MUTATIONS[field_mutation](lines[j].split(","), where % 4)
    text = _TEXT_MUTATIONS[text_mutation](lines, j)
    _both_paths_match_line_parser(text.encode("utf-8") if as_bytes else text)
    if field_mutation == "none" and text_mutation in ("none", "no final newline"):
        assert _kernel(text.encode()) is not None


@pytest.mark.parametrize(
    "text",
    [
        "0,0,0,0\n239,179,5,1\n239,179,5,0",   # the largest pixel, tied timestamps
        "1,2,3,0\n1,2," + "9" * 18 + ",1\n",  # the longest token the kernel reads
        "1,2,3,0\n1,2," + "9" * 19 + ",1\n",  # past int64, on the last line
        "1,2," + "9" * 19 + ",1",
        "1,2," + "0" * 19 + "7,1\n",            # a long token of small value
        "240,0,0,0\n",
        "0,180,0,0\n",
        "0,0,0,2\n",
        "0,0,5,0\n0,0,4,0\n",
        "",
        "\n",
        "1,2,3,0\n1,2,3," + "1" * 18,           # 18 and 19 digits in the last token
        "1,2,3,0\n1,2,3," + "1" * 19,
        "1,2,3,0\n1,2,4," + "0" * 18,
        "1,2,3,0\n1,2,4," + "0" * 19,
        "1,2,3,0\x00",                          # NUL bytes
        "1,2,3,0\n\x00",
        "1,2,\x003,0\n",
    ],
)
def test_fast_parse_boundaries(text):
    for data in (text, text.encode()):
        _both_paths_match_line_parser(data)


@pytest.mark.parametrize(
    "text, events",
    [
        ("", 0),
        ("0,0,0,0", 1),
        ("0,0,0,0\n", 1),
        ("1,2,3,0\n1,2,3," + "1" * 18, None),  # p past 1
        ("1,2,3,0\n1,2," + "9" * 18 + ",1", 2),
        ("1,2,3,0\n1,2," + "1" * 19 + ",1", None),
        ("1,2," + "0" * 18 + ",1", 1),
        ("1,2," + "0" * 19 + ",1", None),
        ("\n", None),
        ("0,0,0,0\n\n", None),
        ("0,0,0,0\r\n", None),
        ("0,0,0,0\r", None),
        ("0,0,0,0\r1,1,1,1\n", None),
        ("0,0,0,0\x00", None),
        ("0,0,0,0\n\x00", None),
        ("239,179,0,1", 1),
        ("240,179,0,1", None),
        ("239,180,0,1", None),
    ],
)
def test_kernel_reads_only_the_canonical_form(text, events):
    got = _kernel(text.encode())
    assert (None if got is None else len(got[0])) == events


_NEAR_CSV = "0123456789,\n\r-+ \x00\xff"


@settings(max_examples=500, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.text(alphabet=_NEAR_CSV, max_size=64),
        st.text(alphabet=_NEAR_CSV, max_size=64).map(lambda t: t.encode("latin-1")),
        st.lists(
            st.lists(st.text(alphabet="0123456789", min_size=1, max_size=3), min_size=4, max_size=4)
            .map(",".join),
            max_size=6,
        ).map("\n".join),
    )
)
def test_parse_csv_fuzz_matches_line_parser(data):
    _both_paths_match_line_parser(data)


def test_fast_parse_reads_written_files(rng):
    n = 5_000
    ts = np.cumsum(rng.integers(0, 3, size=n))
    stream = EventStream(GEO, rng.integers(0, 240, n), rng.integers(0, 180, n), ts, rng.integers(0, 2, n))
    fast = _kernel(write_csv(stream).encode())
    assert fast is not None
    for a, b in zip(fast, (stream.x, stream.y, stream.t, stream.p)):
        assert a.dtype == np.int64 and a.flags.c_contiguous and np.array_equal(a, b)


@pytest.mark.parametrize("kernels", [nullcontext, python_kernels], ids=["native", "python"])
def test_non_utf8_bytes_are_a_line_error(kernels):
    with kernels():
        with pytest.raises(DataError, match=r"^line 3: byte 0xff is not UTF-8 text$"):
            parse_csv(b"1,2,3,0\n\n\xff,2,3,0\n", GEO)
        # an earlier bad line is reported first
        with pytest.raises(DataError, match=r"^line 1: expected 4"):
            parse_csv(b"1,2\n\xfe", GEO)
        # a character split by the end of the text
        with pytest.raises(DataError, match=r"^line 2: byte 0xc3 is not UTF-8 text$"):
            parse_csv(b"1,2,3,0\r\xc3", GEO)
