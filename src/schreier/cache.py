"""Persistent norm cache: one JSON record per line.

Records have the shape {family, c, vec, value, cert}, keyed by the first
three, with `cert` the JSON form of the norm's partition certificate.  A
lookup returns the stored value and certificate; the caller re-verifies the
certificate before serving the value (`norms.norm_value`), and treats a
record whose certificate does not give its value as a miss.  A store
appends a record; on load the last record for a key wins, so a corrected
record appended after a bad one replaces it.  Lines that do not decode are
skipped.
"""

from __future__ import annotations

import json
import os
import threading

ENV_VAR = "SCHREIER_CACHE_DIR"

_lock = threading.Lock()
_loaded = {}  # path -> dict[(family, c, vec)] = (value_str, cert_json)


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
                        table[(rec["family"], rec["c"], rec["vec"])] = (rec["value"], rec["cert"])
                    except (ValueError, KeyError, TypeError, RecursionError):
                        continue  # a blank, truncated or foreign line is no record
        _loaded[path] = table
        return table


def lookup(path, family, c, vec):
    if path is None:
        return None
    return _load(path).get((family, c, vec))


def store(path, family, c, vec, value, cert):
    if path is None:
        return
    table = _load(path)
    key = (family, c, vec)
    with _lock:
        table[key] = (value, cert)
        line = json.dumps(
            {"family": family, "c": c, "vec": vec, "value": value, "cert": cert}
        ).encode() + b"\n"
        with open(path, "a+b") as fh:
            # start a fresh line after a truncated last record
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
