"""Flat-file matrix I/O: a tiny self-describing binary format plus CSV.

Binary layout: a 32-byte header (8-byte magic ``ISPEC2D\\0``, then
little-endian uint32 version, uint32 dtype code and two uint64 dimensions),
then the row-major matrix itself as its dtype: code 0 is ``<f8``, code 1
``<c16`` (each value re then im).  Writer and reader move the payload as one
view of that dtype, so a matrix reads back bit for bit, NaN payloads and
signed zeros included.

CSV rows go through ``csv.writer`` with ``"\\n"`` line ends, each float
formatted ``.17g`` (repr-exact, locale-free) and every other value by
``str``, encoded UTF-8, so the bytes of an artifact depend only on its values.

Both writers build a file's bytes in memory, write them in one call and
return them, so that a caller can hash what was written without reading the
file back.
"""

import csv
import io
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ISPEC2D\x00"
VERSION = 1
_HEADER = struct.Struct("<8sIIQQ")  # magic, version, dtype code, rows, cols
_DTYPES = (np.dtype("<f8"), np.dtype("<c16"))  # indexed by dtype code


def write_matrix(path: str | Path, matrix: np.ndarray) -> bytearray:
    """Write ``matrix`` in the binary layout; returns the bytes written."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    code = int(np.iscomplexobj(m))
    dtype = _DTYPES[code]
    data = bytearray(_HEADER.size + dtype.itemsize * m.size)
    _HEADER.pack_into(data, 0, MAGIC, VERSION, code, *m.shape)
    np.frombuffer(data, dtype, offset=_HEADER.size).reshape(m.shape)[...] = m
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_matrix(path: str | Path) -> np.ndarray:
    """The matrix ``write_matrix`` wrote to ``path``; ValueError for a file
    that is not one."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size or data[:len(MAGIC)] != MAGIC:
        raise ValueError(f"bad magic or short header in {path}")
    _, version, code, rows, cols = _HEADER.unpack_from(data)
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if code >= len(_DTYPES):
        raise ValueError(f"unknown dtype code {code}")
    dtype = _DTYPES[code]
    if len(data) != _HEADER.size + dtype.itemsize * rows * cols:
        raise ValueError(f"payload of {path} does not hold a {rows} x {cols} matrix")
    return np.frombuffer(data, dtype, offset=_HEADER.size).reshape(rows, cols).copy()


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
