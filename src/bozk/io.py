"""Snapshot binary format, atomic file writes, and CSV emission.

Snapshot layout (little-endian): magic b"BOZK", version u32, nx u32, ny u32,
Lx f64, Ly f64, then ny*nx float64 samples row-major with x fastest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .grid import RealField, make_grid

MAGIC = b"BOZK"
VERSION = 1
HEADER_BYTES = 4 + struct.calcsize("<IIIdd")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_snapshot(path: str | Path, field: RealField) -> None:
    g = field.grid
    header = MAGIC + struct.pack("<IIIdd", VERSION, g.nx, g.ny, g.lx, g.ly)
    body = np.ascontiguousarray(field.samples, dtype="<f8").tobytes()
    atomic_write_bytes(path, header + body)


def read_snapshot(path: str | Path) -> RealField:
    """Read a snapshot; an unreadable, truncated or overlong file is bad
    input data and raises ValueError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read snapshot ({exc.strerror})") from None
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a field snapshot (bad magic)")
    if len(raw) < HEADER_BYTES:
        raise ValueError(f"{path}: snapshot header truncated at {len(raw)} bytes")
    version, nx, ny, lx, ly = struct.unpack_from("<IIIdd", raw, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    grid = make_grid(nx, ny, lx, ly)
    if len(raw) != HEADER_BYTES + 8 * nx * ny:
        raise ValueError(
            f"{path}: {len(raw)} bytes, not {HEADER_BYTES + 8 * nx * ny} for a {nx}x{ny} grid"
        )
    samples = np.frombuffer(raw, dtype="<f8", offset=HEADER_BYTES)
    return RealField(grid, samples.reshape(ny, nx).copy())


def fmt(value) -> str:
    """Floats with 17 significant digits (exact float64 round trip)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header and rows, values through fmt; a field holding a comma or quote is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    atomic_write_text(path, text.getvalue())


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def write_json(path: str | Path, payload) -> None:
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )
