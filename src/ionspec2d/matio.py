"""Flat-file matrix I/O: a tiny self-describing binary format plus CSV.

Binary layout: 16-byte header (8-byte magic ``ISPEC2D\\0``, little-endian
uint32 version, uint32 dtype code: 0 = float64, 1 = complex as interleaved
re/im float64 pairs), two little-endian uint64 dimensions, then row-major
float64 payload.

CSV rows go through ``csv.writer`` with ``"\\n"`` line ends, each float
formatted ``.17g`` (repr-exact, locale-free) and every other value by
``str``, so the bytes of an artifact depend only on its values.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ISPEC2D\x00"
VERSION = 1
_DTYPE_REAL = 0
_DTYPE_COMPLEX = 1


def write_matrix(path: str | Path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    complex_ = np.iscomplexobj(m)
    code = _DTYPE_COMPLEX if complex_ else _DTYPE_REAL
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, code))
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        if complex_:
            inter = np.empty((m.shape[0], m.shape[1] * 2))
            inter[:, 0::2] = m.real
            inter[:, 1::2] = m.imag
            fh.write(inter.astype("<f8").tobytes())
        else:
            fh.write(m.astype("<f8").tobytes())


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


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """CSV with deterministic float formatting (repr-exact, locale-free)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
