"""Versioned binary container for trained models.

Layout: a 4-byte magic, a little-endian u32 format version, then a
sequence of sections.  Each section is a 4-byte ASCII tag, a u64
little-endian payload length, and the payload.  The META section holds
a UTF-8 JSON object (sorted keys); every other section holds named
arrays, each serialized as name, explicit little-endian dtype string,
shape, and raw C-order bytes.

A lossless text export renders floats via float.hex() for diffing.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DataError

MAGIC = b"EVRB"
VERSION = 1

_CANONICAL_DTYPES = {
    "float64": "<f8",
    "float32": "<f4",
    "int64": "<i8",
    "int32": "<i4",
    "uint64": "<u8",
    "bool": "|b1",
}


def _canonical(arr: np.ndarray) -> tuple[str, np.ndarray]:
    code = _CANONICAL_DTYPES.get(arr.dtype.name)
    if code is None:
        raise DataError(f"bundle: unsupported array dtype {arr.dtype}")
    canon = arr.astype(code, copy=False)
    # ascontiguousarray would silently promote 0-d scalars to shape (1,)
    if canon.ndim:
        canon = np.ascontiguousarray(canon)
    return code, canon


def _encode_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    parts = []
    for name, arr in arrays.items():
        raw_name = name.encode("utf-8")
        code, canon = _canonical(np.asarray(arr))
        raw_code = code.encode("ascii")
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<H", len(raw_code)))
        parts.append(raw_code)
        parts.append(struct.pack("<B", canon.ndim))
        for dim in canon.shape:
            parts.append(struct.pack("<Q", dim))
        parts.append(canon.tobytes())
    return b"".join(parts)


def _decode_arrays(payload: bytes, tag: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(payload):
            raise DataError(f"bundle: truncated {tag} section")
        chunk = payload[pos : pos + n]
        pos += n
        return chunk

    while pos < len(payload):
        (name_len,) = struct.unpack("<H", take(2))
        raw_name = take(name_len)
        (code_len,) = struct.unpack("<H", take(2))
        raw_code = take(code_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"bundle: an array name in {tag} is not UTF-8") from None
        # only the dtypes _canonical writes: any other numpy code, an object
        # array's among them, is no array a bundle holds
        code = raw_code.decode("ascii", "replace")
        if code not in _CANONICAL_DTYPES.values():
            raise DataError(f"bundle: {tag} array {name!r} has unsupported dtype {code!r}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        dtype = np.dtype(code)
        count = 1
        for dim in shape:
            count *= dim
        raw = take(count * dtype.itemsize)
        out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


def write_bundle(meta: dict, sections: dict[str, dict[str, np.ndarray]]) -> bytes:
    """Serialize meta plus named-array sections to bundle bytes."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta_payload = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    for tag, payload in [("META", meta_payload)] + [
        (tag, _encode_arrays(arrays)) for tag, arrays in sections.items()
    ]:
        raw_tag = tag.encode("ascii")
        if len(raw_tag) != 4:
            raise DataError(f"bundle: section tag {tag!r} must be 4 ASCII bytes")
        parts.append(raw_tag)
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def read_bundle(data: bytes) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    if data[:4] != MAGIC:
        raise DataError("bundle: bad magic")
    (version,) = struct.unpack("<I", data[4:8])
    if version != VERSION:
        raise DataError(f"bundle: unsupported version {version}")
    pos = 8
    meta: dict | None = None
    sections: dict[str, dict[str, np.ndarray]] = {}
    while pos < len(data):
        if pos + 12 > len(data):
            raise DataError("bundle: truncated section header")
        try:
            tag = data[pos : pos + 4].decode("ascii")
        except UnicodeDecodeError:
            raise DataError(f"bundle: section tag {data[pos : pos + 4]!r} is not ASCII") from None
        (length,) = struct.unpack("<Q", data[pos + 4 : pos + 12])
        pos += 12
        if pos + length > len(data):
            raise DataError(f"bundle: truncated {tag} payload")
        payload = bytes(data[pos : pos + length])
        pos += length
        if tag == "META":
            try:
                meta = json.loads(payload.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
                raise DataError(f"bundle: META is not UTF-8 JSON ({exc})") from None
            if not isinstance(meta, dict):
                raise DataError("bundle: META is not a JSON object")
        else:
            sections[tag] = _decode_arrays(payload, tag)
    if meta is None:
        raise DataError("bundle: missing META section")
    return meta, sections


def export_text(data: bytes) -> str:
    """Human-diffable lossless dump of a bundle."""
    meta, sections = read_bundle(data)
    lines = [f"bundle version {VERSION}", "META " + json.dumps(meta, sort_keys=True)]
    for tag in sorted(sections):
        for name in sorted(sections[tag]):
            arr = sections[tag][name]
            shape = "x".join(str(d) for d in arr.shape)
            lines.append(f"{tag}/{name} dtype={arr.dtype.str} shape={shape}")
            flat = arr.ravel()
            if arr.dtype.kind == "f":
                body = " ".join(float(v).hex() for v in flat)
            else:
                body = " ".join(str(v) for v in flat)
            lines.append("  " + body)
    return "\n".join(lines) + "\n"
