"""Persistent norm cache: one JSON record per line.

Records have the shape {family, c, vec, value, cert_digest}, keyed by the
first three.  A lookup returns the stored value without recomputing it, and
a store appends a record only for a key not yet in the file.  Lines that do
not decode are skipped.  The certificate digest is written with each record
but nothing reads it back, and no hit is compared with recomputation.
"""

from __future__ import annotations

import json
import os
import threading

ENV_VAR = "SCHREIER_CACHE_DIR"

_lock = threading.Lock()
_loaded = {}  # path -> dict[(family, c, vec)] = (value_str, digest)


class CacheMismatch(RuntimeError):
    """A cached value disagrees with recomputation (cache corruption)."""


def cache_path(cache_dir=None):
    cache_dir = cache_dir or os.environ.get(ENV_VAR)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, "norms.jsonl")


def _load(path):
    with _lock:
        if path in _loaded:
            return _loaded[path]
        table = {}
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    try:
                        rec = json.loads(line)
                        table[(rec["family"], rec["c"], rec["vec"])] = (
                            rec["value"],
                            rec["cert_digest"],
                        )
                    except (ValueError, KeyError, TypeError):
                        continue  # a blank, truncated or foreign line is no record
        _loaded[path] = table
        return table


def cert_digest(cert):
    import hashlib  # only a miss pays for it

    return hashlib.sha256(
        json.dumps(cert.to_json(), sort_keys=True).encode()
    ).hexdigest()


def lookup(path, family, c, vec):
    if path is None:
        return None
    return _load(path).get((family, c, vec))


def store(path, family, c, vec, value, digest):
    if path is None:
        return
    table = _load(path)
    key = (family, c, vec)
    with _lock:
        if key in table:
            return
        table[key] = (value, digest)
        line = json.dumps(
            {"family": family, "c": c, "vec": vec, "value": value, "cert_digest": digest}
        ).encode() + b"\n"
        with open(path, "a+b") as fh:
            # start a fresh line after a truncated last record
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
