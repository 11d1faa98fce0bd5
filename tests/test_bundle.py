"""Tests for the binary model container and its text export."""

import numpy as np
import pytest

from evrect.bundle import export_text, read_bundle, write_bundle
from evrect.errors import DataError


def sample_sections(rng):
    return {
        "ABCD": {
            "f8": rng.standard_normal((3, 4)),
            "f4": rng.standard_normal(5).astype(np.float32),
            "i8": rng.integers(-(2**40), 2**40, size=(2, 2)),
            "i4": rng.integers(-100, 100, size=7).astype(np.int32),
            "u8": rng.integers(0, 2**49, size=6).astype(np.uint64),
            "b1": rng.integers(0, 2, size=9).astype(bool),
        },
        "WXYZ": {"scalar": np.asarray(3.5), "empty": np.zeros((0, 3))},
    }


def test_round_trip_preserves_meta_and_arrays(rng):
    meta = {"kind": "test", "k": 12, "names": ["a", "b"], "flag": True}
    sections = sample_sections(rng)
    data = write_bundle(meta, sections)
    got_meta, got_sections = read_bundle(data)
    assert got_meta == meta
    assert set(got_sections) == set(sections)
    for tag, arrays in sections.items():
        assert set(got_sections[tag]) == set(arrays)
        for name, arr in arrays.items():
            got = got_sections[tag][name]
            assert got.shape == np.asarray(arr).shape
            assert got.dtype == np.asarray(arr).dtype
            assert np.array_equal(got, arr)


def test_serialization_is_deterministic(rng):
    meta = {"b": 1, "a": 2}
    sections = sample_sections(rng)
    assert write_bundle(meta, sections) == write_bundle(meta, sections)


def test_bad_magic_rejected():
    with pytest.raises(DataError, match="bad magic"):
        read_bundle(b"NOPE" + b"\x00" * 20)


def test_unsupported_version_rejected():
    data = bytearray(write_bundle({}, {}))
    data[4] = 99
    with pytest.raises(DataError, match="unsupported version"):
        read_bundle(bytes(data))


def test_truncated_header_rejected():
    data = write_bundle({"x": 1}, {})
    with pytest.raises(DataError, match="truncated section header"):
        read_bundle(data + b"META")


def test_truncated_payload_rejected(rng):
    data = write_bundle({"x": 1}, {"ABCD": {"a": rng.standard_normal(4)}})
    with pytest.raises(DataError, match="truncated ABCD payload"):
        read_bundle(data[:-1])


def test_truncated_array_record_rejected(rng):
    import struct

    payload = b"\x00"  # half of a u16 name length
    data = b"EVRB" + struct.pack("<I", 1)
    meta = b"{}"
    data += b"META" + struct.pack("<Q", len(meta)) + meta
    data += b"ARRS" + struct.pack("<Q", len(payload)) + payload
    with pytest.raises(DataError, match="truncated ARRS section"):
        read_bundle(data)


def test_missing_meta_rejected():
    import struct

    data = b"EVRB" + struct.pack("<I", 1)
    with pytest.raises(DataError, match="missing META"):
        read_bundle(data)


def test_bad_tag_length_rejected(rng):
    with pytest.raises(DataError, match="must be 4 ASCII bytes"):
        write_bundle({}, {"TOOLONG": {"a": np.zeros(1)}})


def test_unsupported_dtype_rejected():
    with pytest.raises(DataError, match="unsupported array dtype"):
        write_bundle({}, {"ABCD": {"a": np.zeros(3, dtype=np.complex128)}})


@pytest.mark.parametrize("code, name", [("<c16", b"a"), ("|O", b"a"), ("float64", b"a"), ("<f8", b"\xff")])
def test_array_of_another_dtype_code_or_a_binary_name_rejected(code, name):
    """Only the dtype codes write_bundle writes are read back: numpy would
    also take a complex or an object code (an object array ended in a
    ValueError traceback)."""
    import struct

    raw = code.encode("ascii")
    payload = (struct.pack("<H", len(name)) + name + struct.pack("<H", len(raw)) + raw
               + struct.pack("<BQ", 1, 1) + b"\x00" * 16)
    meta = b"{}"
    data = (b"EVRB" + struct.pack("<I", 1) + b"META" + struct.pack("<Q", len(meta)) + meta
            + b"ARRS" + struct.pack("<Q", len(payload)) + payload)
    with pytest.raises(DataError, match="unsupported dtype" if name == b"a" else "not UTF-8"):
        read_bundle(data)


def test_text_export_lossless_floats(rng):
    arr = np.asarray([1.0 / 3.0, -0.0, 2.5e-300])
    data = write_bundle({"kind": "t"}, {"ABCD": {"vals": arr}})
    text = export_text(data)
    assert text == export_text(data)
    for v in arr:
        assert float(v).hex() in text
    assert "ABCD/vals dtype=<f8 shape=3" in text
    assert text.startswith("bundle version 1")


def test_text_export_integer_arrays(rng):
    data = write_bundle({}, {"ABCD": {"n": np.asarray([7, -3], dtype=np.int64)}})
    text = export_text(data)
    assert "7 -3" in text
