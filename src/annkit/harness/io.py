"""Binary vector file I/O.

Record format, repeated to end of file: a little-endian 32-bit integer d,
then d little-endian 32-bit IEEE-754 floats. Every record in a file must
carry the same d.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from annkit.core import Collection

__all__ = ["load_vecs", "save_vecs"]


def save_vecs(path: str | os.PathLike, X: Collection) -> None:
    if not X.is_dense:
        raise ValueError("vecs files hold dense vectors only")
    block = np.empty((len(X), X.dim + 1), dtype="<f4")
    block[:, 1:] = X.vectors
    block[:, 0].view("<i4")[:] = X.dim
    with open(path, "wb") as fh:
        fh.write(block.tobytes())


def load_vecs(path: str | os.PathLike) -> Collection:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0:
        raise ValueError(f"{path}: empty file (a collection needs at least one vector)")
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated record header at byte 0")
    (d,) = struct.unpack_from("<i", raw, 0)
    if d <= 0:
        raise ValueError(f"{path}: invalid dimension {d} at byte 0")
    # every record before the first bad header has dimension d, so the file
    # reads as whole (d + 1)-word rows up to that header
    record = 4 * (d + 1)
    rows = np.frombuffer(raw, dtype="<f4", count=(len(raw) // record) * (d + 1)).reshape(-1, d + 1)
    bad = np.flatnonzero(rows[:, 0].view("<i4") != d)
    offset = int(bad[0]) * record if bad.size else rows.shape[0] * record
    if offset < len(raw):
        if offset + 4 > len(raw):
            raise ValueError(f"{path}: truncated record header at byte {offset}")
        (rec_d,) = struct.unpack_from("<i", raw, offset)
        if rec_d <= 0:
            raise ValueError(f"{path}: invalid dimension {rec_d} at byte {offset}")
        if rec_d != d:
            raise ValueError(f"{path}: inconsistent dimensions ({d} then {rec_d})")
        raise ValueError(f"{path}: truncated record payload at byte {offset + 4}")
    return Collection(rows[:, 1:].astype(np.float32))
