"""On-disk cache for computed count tables.

Format: a line-oriented text file, chosen over binary for diff-ability.

    # hypermap-census cache v2
    # engine=kz genus=3 max-darts=14
    g d v e count
    ...
    # rows=N crc32=XXXXXXXX

Counts are decimal big integers.  The trailer holds the number of rows and
the CRC-32 of their text, so a truncated, edited or half-written file is
recognised, as is a file whose header names another table than its file name
or a table :class:`CountTable` refuses (genus below 0, fewer than 1 dart), or
which holds a header or row not written exactly as :func:`save_table` writes
it (such as ``1_0`` or ``+1``) or a row :class:`CountTable` refuses (another
genus, past the header's dart count, an invalid key or a count below 1):
:func:`load_cached` then serves nothing and says so in one line on stderr,
and the caller recomputes the table and overwrites the file.  Writes are
atomic (temp file in the same directory, then rename).  The cache directory
is ``$HYPERMAP_CACHE_DIR`` if set, else ``~/.cache/hypermap-census``.
"""

from __future__ import annotations

import os
import re
import sys
import zlib
from pathlib import Path

from .core import CensusError, CountTable

FORMAT_VERSION = 2
_MAGIC = f"# hypermap-census cache v{FORMAT_VERSION}"
# rows exactly as save_table writes them: five decimals without sign or leading zero
_ROWS = re.compile(r"(?:(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*)){4}\n)*")


def cache_dir() -> Path:
    env = os.environ.get("HYPERMAP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hypermap-census"


def table_path(engine: str, genus: int, max_darts: int) -> Path:
    return cache_dir() / f"{engine}-g{genus}-d{max_darts}.counts"


def _meta(table: CountTable) -> str:
    return f"# engine={table.engine} genus={table.genus} max-darts={table.max_darts}"


def _trailer(body: str, rows: int) -> str:
    return f"# rows={rows} crc32={zlib.crc32(body.encode()):08x}"


def save_table(table: CountTable, genus: int, path: Path | None = None) -> Path:
    """Write ``table`` atomically to ``path`` (default: its cache file) and
    return the path.  ``genus`` must be ``table.genus``, else ValueError and
    nothing is written."""
    import tempfile   # here, not at module level: a request served from the cache never writes

    if genus != table.genus:
        raise ValueError(f"genus {genus} given for a table of genus {table.genus}")
    if path is None:
        path = table_path(table.engine, genus, table.max_darts)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(f"{g} {t} {v} {e} {count}\n"
                   for (g, t, v, e), count in sorted(table.items()))
    text = f"{_MAGIC}\n{_meta(table)}\n{body}{_trailer(body, len(table))}\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _header(magic: str, meta: str) -> dict | None:
    if magic != _MAGIC or not meta.startswith("# "):
        return None
    fields = {}
    for part in meta[2:].split():
        key, _, value = part.partition("=")
        fields[key] = value
    if not {"engine", "genus", "max-darts"} <= fields.keys():
        return None
    return fields


def _parse(text: str) -> CountTable:
    """The table in a cache file's text; ValueError or CensusError if damaged."""
    lines = text.split("\n")
    header = _header(*lines[:2]) if len(lines) >= 4 else None
    if header is None or lines[-1]:
        raise ValueError(f"not a v{FORMAT_VERSION} cache file")
    rows = lines[2:-2]
    body = "".join(row + "\n" for row in rows)
    if lines[-2] != _trailer(body, len(rows)):
        raise ValueError("row count or checksum does not match the trailer")
    good = _ROWS.match(body).end()
    if good < len(body):
        bad = body[good:].split("\n", 1)[0]
        raise ValueError(f"malformed row {bad!r}")
    nums = map(int, body.split())
    counts = {(g, t, v, e): c for g, t, v, e, c in zip(nums, nums, nums, nums, nums)}
    if len(counts) < len(rows):
        raise ValueError(f"{len(rows) - len(counts)} repeated row(s)")
    table = CountTable(header["engine"], int(header["genus"]),
                       int(header["max-darts"]), counts)
    if lines[1] != _meta(table):
        raise ValueError(f"malformed header {lines[1]!r}")
    return table


def _read(path: Path) -> CountTable:
    """The table in the cache file ``path``; OSError, ValueError or CensusError
    when the file cannot be read, is damaged or names another table."""
    table = _parse(path.read_text())
    if path.name != table_path(table.engine, table.genus, table.max_darts).name:
        raise ValueError("its header names another table")
    return table


def load_cached(engine: str, genus: int, max_darts: int) -> CountTable | None:
    """The cached table, or None when there is no cache file for it, or, with
    one line on stderr, when the file cannot be read, is not an intact cache
    file or its header names another table than its file name does."""
    path = table_path(engine, genus, max_darts)
    if not path.exists():
        return None
    try:
        return _read(path)
    except (OSError, ValueError, CensusError) as exc:
        print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
        return None


def cache_entries():
    """Yield (path, status) for every ``*.counts`` file in the cache directory:
    status is "ok" for a file :func:`load_cached` serves, else the reason it
    refuses the file."""
    root = cache_dir()
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.counts")):
        try:
            _read(path)
        except (OSError, ValueError, CensusError) as exc:
            yield path, str(exc)
        else:
            yield path, "ok"
