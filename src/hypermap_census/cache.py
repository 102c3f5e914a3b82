"""On-disk cache for computed count tables.

Format: a line-oriented text file, chosen over binary for diff-ability.

    # hypermap-census cache v2
    # engine=kz genus=3 max-darts=14
    g d v e count
    ...
    # rows=N crc32=XXXXXXXX

Counts are decimal big integers.  The trailer holds the number of rows and
the CRC-32 of their text, so a truncated, edited or half-written file is
recognised: :func:`load_table` then serves nothing and says so in one line on
stderr, and the caller recomputes the table and overwrites the file.  Writes
are atomic (temp file in the same directory, then rename).  The cache
directory is ``$HYPERMAP_CACHE_DIR`` if set, else ``~/.cache/hypermap-census``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import zlib
from pathlib import Path

from .core import CensusError, CountTable

FORMAT_VERSION = 2
_MAGIC = f"# hypermap-census cache v{FORMAT_VERSION}"


def cache_dir() -> Path:
    env = os.environ.get("HYPERMAP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hypermap-census"


def table_path(engine: str, genus: int, max_darts: int) -> Path:
    return cache_dir() / f"{engine}-g{genus}-d{max_darts}.counts"


def _trailer(body: str, rows: int) -> str:
    return f"# rows={rows} crc32={zlib.crc32(body.encode()):08x}"


def save_table(table: CountTable, genus: int, path: Path | None = None) -> Path:
    if path is None:
        path = table_path(table.engine, genus, table.max_darts)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(f"{g} {t} {v} {e} {count}\n"
                   for (g, t, v, e), count in sorted(table.items()))
    text = (f"{_MAGIC}\n# engine={table.engine} genus={genus} "
            f"max-darts={table.max_darts}\n{body}{_trailer(body, len(table))}\n")
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


def read_header(path: Path) -> dict | None:
    """The header fields of a cache file, or None if it is not one of ours."""
    try:
        with open(path) as fh:
            magic = fh.readline().rstrip("\n")
            meta = fh.readline().rstrip("\n")
    except OSError:
        return None
    return _header(magic, meta)


def _parse(text: str) -> CountTable:
    """The table in a cache file's text; ValueError or CensusError if damaged."""
    lines = text.split("\n")
    header = _header(*lines[:2]) if len(lines) >= 4 else None
    if header is None or lines[-1]:
        raise ValueError(f"not a v{FORMAT_VERSION} cache file")
    rows = lines[2:-2]
    if lines[-2] != _trailer("".join(row + "\n" for row in rows), len(rows)):
        raise ValueError("row count or checksum does not match the trailer")
    table = CountTable(engine=header["engine"], max_genus=int(header["genus"]),
                       max_darts=int(header["max-darts"]))
    for row in rows:
        fields = row.split(" ")
        if len(fields) != 5:
            raise ValueError(f"malformed row {row!r}")
        g, t, v, e, count = map(int, fields)
        if (g, t, v, e) in table.keys():
            raise ValueError(f"repeated row {row!r}")
        table.add(g, t, v, e, count)
    return table.freeze()


def _refuse(path: Path, reason) -> None:
    print(f"warning: ignoring cache file {path}: {reason}", file=sys.stderr)


def load_table(path: Path) -> CountTable | None:
    """The table stored at ``path``, or None, with one line on stderr, when the
    file cannot be read or is not an intact cache file."""
    try:
        return _parse(path.read_text())
    except (OSError, ValueError, CensusError) as exc:
        _refuse(path, exc)
        return None


def load_cached(engine: str, genus: int, max_darts: int) -> CountTable | None:
    path = table_path(engine, genus, max_darts)
    if not path.exists():
        return None
    table = load_table(path)
    if table is None or (table.engine, table.max_genus, table.max_darts) == \
            (engine, genus, max_darts):
        return table
    _refuse(path, "its header names another table")
    return None


def cache_entries():
    """Yield (path, header) for every cache file in the cache directory."""
    root = cache_dir()
    if not root.is_dir():
        return
    for path in sorted(root.iterdir()):
        header = read_header(path)
        if header is not None:
            yield path, header
