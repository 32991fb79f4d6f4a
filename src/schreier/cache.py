"""Persistent norm cache: one JSON file per record.

A record has the shape {family, c, vec, value, cert}, keyed by the first
three, with `cert` the JSON form of the norm's partition certificate.  It
lives in the cache directory in a file named by a checksum of its key, so a
lookup opens that one file.  A missing file, a file that does not decode and
a file holding another key (two keys with one checksum) are all misses.  The
caller re-verifies the certificate before serving the value
(`norms.norm_value`), and treats a record whose certificate does not give
its value as a miss.  A store writes a uniquely named temporary file and
renames it over the record, so the last store wins and a write cut short
leaves the old record or none (and at worst a stray `.tmp` file).
"""

import json
import os
import zlib

ENV_VAR = "SCHREIER_CACHE_DIR"


def cache_path(cache_dir=None):
    """The cache directory (created if missing), or None without one."""
    cache_dir = cache_dir or os.environ.get(ENV_VAR)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return cache_dir


def _record_file(path, family, c, vec):
    key = json.dumps([family, c, vec]).encode()
    return os.path.join(path, "%08x%08x.json" % (zlib.crc32(key), zlib.adler32(key)))


def lookup(path, family, c, vec):
    try:
        with open(_record_file(path, family, c, vec)) as fh:
            rec = json.load(fh)
        if (rec["family"], rec["c"], rec["vec"]) == (family, c, vec):
            return rec["value"], rec["cert"]
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        pass  # a missing, truncated or foreign file is no record
    return None


def store(path, family, c, vec, value, cert):
    target = _record_file(path, family, c, vec)
    tmp = "%s.%s.tmp" % (target, os.urandom(8).hex())
    with open(tmp, "x") as fh:
        json.dump({"family": family, "c": c, "vec": vec, "value": value, "cert": cert}, fh)
    os.replace(tmp, target)
