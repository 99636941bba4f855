"""Disk cache for flag tables, keyed by (n, shape).

Files are JSON with a version and a payload checksum; a bad checksum is
treated as a miss and the value is recomputed.  Writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .shapes import Shape, as_shape

VERSION = 1


def _key(n: int, shape: Shape, kind: str) -> str:
    lam = "-".join(str(p) for p in shape.parts)
    return f"n{n}_lam{lam}_{kind}.json"


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str, n: int, shape: Shape, kind: str):
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if (
        doc.get("version") != VERSION
        or doc.get("kind") != kind
        or doc.get("n") != n
        or doc.get("lambda") != list(shape.parts)
        or doc.get("sha256") != _digest(doc.get("payload"))
    ):
        return None
    return doc["payload"]


def store_table(cache_dir: str, table) -> str:
    payload = [[list(s), f, h] for s, f, h in table.entries()]
    path = os.path.join(cache_dir, _key(table.n, table.shape, "table"))
    _write(
        path,
        {
            "version": VERSION,
            "kind": "table",
            "n": table.n,
            "lambda": list(table.shape.parts),
            "payload": payload,
            "sha256": _digest(payload),
        },
    )
    return path


def load_table(cache_dir: str, n: int, shape):
    """Table entries [(ranks tuple, f, h), ...] or None on miss."""
    shape = as_shape(shape)
    payload = _read(os.path.join(cache_dir, _key(n, shape, "table")), n, shape, "table")
    if payload is None:
        return None
    return [(tuple(s), f, h) for s, f, h in payload]
