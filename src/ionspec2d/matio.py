"""Flat-file matrix I/O: a tiny self-describing binary format plus CSV.

Binary layout: 16-byte header (8-byte magic ``ISPEC2D\\0``, little-endian
uint32 version, uint32 dtype code: 0 = float64, 1 = complex as interleaved
re/im float64 pairs), two little-endian uint64 dimensions, then row-major
float64 payload.

CSV rows go through ``csv.writer`` with ``"\\n"`` line ends, each float
formatted ``.17g`` (repr-exact, locale-free) and every other value by
``str``, encoded UTF-8, so the bytes of an artifact depend only on its values.

Both writers build a file's bytes in memory, write them in one call and
return them, so that a caller can hash what was written without reading the
file back.
"""

from __future__ import annotations

import csv
import io
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ISPEC2D\x00"
VERSION = 1
_DTYPE_REAL = 0
_DTYPE_COMPLEX = 1


def write_matrix(path: str | Path, matrix: np.ndarray) -> bytearray:
    """Write ``matrix`` in the binary layout; returns the bytes written."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    complex_ = np.iscomplexobj(m)
    code = _DTYPE_COMPLEX if complex_ else _DTYPE_REAL
    rows, cols = m.shape
    width = 2 * cols if complex_ else cols  # float64 values per row
    data = bytearray(32 + 8 * rows * width)
    struct.pack_into("<8sIIQQ", data, 0, MAGIC, VERSION, code, rows, cols)
    payload = np.frombuffer(data, dtype="<f8", offset=32).reshape(rows, width)
    if complex_:
        payload[:, 0::2] = m.real
        payload[:, 1::2] = m.imag
    else:
        payload[...] = m
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_matrix(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        version, code = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        if code == _DTYPE_REAL:
            data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
            return data.reshape(rows, cols).copy()
        if code == _DTYPE_COMPLEX:
            data = np.frombuffer(fh.read(rows * cols * 16), dtype="<f8")
            inter = data.reshape(rows, 2 * cols)
            return (inter[:, 0::2] + 1j * inter[:, 1::2]).copy()
        raise ValueError(f"unknown dtype code {code}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> bytes:
    """CSV with deterministic float formatting (repr-exact, locale-free);
    returns the bytes written."""
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = text.getvalue().encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data
