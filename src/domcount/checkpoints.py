"""Row checkpoints of open-row polynomial sweeps.

A checkpoint file holds one JSON header line, then one length-prefixed
(state code, coefficient vector) record per state, each coefficient an
arbitrary-precision little-endian integer.  `poly --checkpoint-dir` writes
one file per completed row, ``row_0001.chk`` onwards; nothing reads them
back during a run.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Sequence

CHECKPOINT_VERSION = 1


def save_checkpoint(path, header: dict, items: Sequence[tuple[int, Sequence[int]]]) -> None:
    """Write a configuration snapshot: JSON header line, then one
    length-prefixed (code, coefficient vector) record per state."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for code, coeffs in items:
            fh.write(struct.pack("<qI", code, len(coeffs)))
            for c in coeffs:
                blob = int(c).to_bytes((int(c).bit_length() + 7) // 8 or 1, "little")
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        items = []
        while True:
            head = fh.read(12)
            if not head:
                break
            code, k = struct.unpack("<qI", head)
            coeffs = []
            for _ in range(k):
                (blob_len,) = struct.unpack("<I", fh.read(4))
                coeffs.append(int.from_bytes(fh.read(blob_len), "little"))
            items.append((code, tuple(coeffs)))
    return header, items


def write_row_checkpoint(directory, spec, row: int, ring, codes: Sequence[int],
                         states: Sequence[list[int]], cap: int) -> None:
    """The checkpoint after `row` rows of `spec`: one record per state code
    with a nonzero polynomial, coefficients padded to the capacity `cap`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    items = [(int(code), coeffs + [0] * (cap - len(coeffs)))
             for code, coeffs in zip(codes, states) if any(coeffs)]
    header = {"version": CHECKPOINT_VERSION, "family": spec.family,
              "m": spec.m, "n": spec.n, "row": row, "ring": str(ring)}
    save_checkpoint(directory / f"row_{row:04d}.chk", header, items)
