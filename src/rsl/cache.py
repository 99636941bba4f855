"""Disk cache for flag tables, keyed by (n, shape).

Files are JSON with a fingerprint of the code that computed them and a
payload checksum; a file from other code or with a bad checksum is treated
as a miss and the value is recomputed.  Writes go through a temporary file
and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache

from .shapes import Shape, as_shape

# The modules whose code decides a table's entries.
COMPUTING_MODULES = ("shapes", "core", "kernel", "flags", "classes")


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 over the sources of the computing modules; read on first use,
    not at import."""
    import hashlib  # loaded at the first digest, so a request that reads no table skips it

    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in COMPUTING_MODULES:
        with open(os.path.join(here, name + ".py"), "rb") as fh:
            source = fh.read()
        h.update(f"{name}:{len(source)}:".encode())
        h.update(source)
    return h.hexdigest()


# Every document is a flag table; the kind stays in file names and
# documents, so the stored format is unchanged.
_KIND = "table"


def _key(n: int, shape: Shape) -> str:
    lam = "-".join(str(p) for p in shape.parts)
    return f"n{n}_lam{lam}_{_KIND}.json"


def _digest(payload) -> str:
    import hashlib

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


def _read(path: str, n: int, shape: Shape):
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):  # also bad JSON and bytes that are not UTF-8
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("code") != code_fingerprint()
        or doc.get("kind") != _KIND
        or doc.get("n") != n
        or doc.get("lambda") != list(shape.parts)
        or doc.get("sha256") != _digest(doc.get("payload"))
    ):
        return None
    return doc["payload"]


def store_table(cache_dir: str, table) -> str:
    payload = [[list(s), f, h] for s, f, h in table.entries()]
    path = os.path.join(cache_dir, _key(table.n, table.shape))
    _write(
        path,
        {
            "code": code_fingerprint(),
            "kind": _KIND,
            "n": table.n,
            "lambda": list(table.shape.parts),
            "payload": payload,
            "sha256": _digest(payload),
        },
    )
    return path


def _table_entries(payload, n: int):
    """The payload's rows as entries, or None unless it is a list of
    [ranks, f, h] rows with integer f and h whose rank sets are the
    2^(n-2) subsets of 1..n-2, each once."""
    if not isinstance(payload, list) or len(payload) != 1 << (n - 2):
        return None
    entries = []
    for row in payload:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], list)):
            return None
        s, f, h = row
        if not all(type(v) is int for v in (*s, f, h)):
            return None
        if s != sorted(set(s)) or not all(1 <= r <= n - 2 for r in s):
            return None
        entries.append((tuple(s), f, h))
    if len({s for s, _, _ in entries}) != len(entries):
        return None
    return entries


def load_table(cache_dir: str, n: int, shape):
    """Table entries [(ranks tuple, f, h), ...] or None on miss; a malformed
    payload is a miss too."""
    shape = as_shape(shape)
    payload = _read(os.path.join(cache_dir, _key(n, shape)), n, shape)
    return _table_entries(payload, n)
