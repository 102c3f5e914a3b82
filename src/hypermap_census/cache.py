"""On-disk cache for computed count tables.

Format: a line-oriented text file, chosen over binary for diff-ability.

    # hypermap-census cache v2
    # engine=kz genus=3 max-darts=14
    g d v e count
    ...
    # rows=N crc32=XXXXXXXX

Counts are decimal big integers.  A file's name says which table it holds
(``kz-g3-d14.counts``, as :func:`table_path` writes it), and its header line
must be the one :func:`save_table` writes for that table, as its trailer
(the number of rows and the CRC-32 of their text) must match its rows.  So a
truncated, edited or half-written file is recognised, as is a file whose
name is not a table's or whose header names another table, which holds a
row not written exactly as :func:`save_table` writes it (such as ``1_0`` or
``+1``), or a table or row :class:`CountTable` refuses (genus below 0, fewer
than 1 dart, a row of another genus, past the dart count, an invalid key or
a count below 1): :func:`load_cached` then serves nothing and says so in one
line on stderr, and the caller recomputes the table and overwrites the
file.  Writes are atomic (temp file in the same directory, then rename).
The cache directory is ``$HYPERMAP_CACHE_DIR`` if set, else
``~/.cache/hypermap-census``.
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
# the names table_path writes: a lower-case engine, then genus and dart count
# without leading zero (a genus below 0 or no darts is left to CountTable)
_NAME = re.compile(r"([a-z]+)-g(0|-?[1-9][0-9]*)-d(0|-?[1-9][0-9]*)\.counts")


def cache_dir() -> Path:
    env = os.environ.get("HYPERMAP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hypermap-census"


def table_path(engine: str, genus: int, max_darts: int) -> Path:
    return cache_dir() / f"{engine}-g{genus}-d{max_darts}.counts"


def _meta(engine: str, genus, max_darts) -> str:
    return f"# engine={engine} genus={genus} max-darts={max_darts}"


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
    meta = _meta(table.engine, genus, table.max_darts)
    text = f"{_MAGIC}\n{meta}\n{body}{_trailer(body, len(table))}\n"
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


def _read(path: Path) -> CountTable:
    """The table in the cache file ``path``, whose name says which table it
    holds; OSError, ValueError or CensusError when the file cannot be read,
    is damaged, or its header is not the one :func:`save_table` writes for
    that table."""
    lines = path.read_text().split("\n")
    if len(lines) < 4 or lines[0] != _MAGIC or lines[-1]:
        raise ValueError(f"not a v{FORMAT_VERSION} cache file")
    name = _NAME.fullmatch(path.name)
    # the name's numbers are written as save_table writes them, so as strings
    # they give the same header as the ints
    if name is None or lines[1] != _meta(*name.groups()):
        raise ValueError("its header names another table")
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
    return CountTable(name[1], int(name[2]), int(name[3]), counts)


def load_cached(engine: str, genus: int, max_darts: int) -> CountTable | None:
    """The cached table, or None: silently when there is no file (or no cache
    directory) to read, and with one line on stderr when the file cannot be read
    or is not an intact cache file whose header names the table its name does."""
    path = table_path(engine, genus, max_darts)
    try:
        return _read(path)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, CensusError) as exc:
        print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
        return None


def cache_entries():
    """Yield (path, status) for every ``*.counts`` file in the cache directory:
    status is "ok" for a file :func:`load_cached` serves, else the reason it
    refuses the file, which includes a file whose name is not a table's."""
    for path in sorted(cache_dir().glob("*.counts")):
        try:
            _read(path)
        except (OSError, ValueError, CensusError) as exc:
            yield path, str(exc)
        else:
            yield path, "ok"
