"""Reading and writing census tables in the fixed-width text layout.

The layout mirrors how the reference tables are printed: one line per key

       d   v   e   f   <count>

in blocks of equal dart count ordered by descending face count then
ascending vertex count, each block followed by a blank line, a

       d         sum   <total>

line and another blank line.  Fixture files use exactly this shape (they can
be produced by copy-paste), so rendered output and fixtures are comparable
after whitespace normalization.  A column-header line before the first row
or sum line is tolerated and skipped by the parser; a non-numeric line after
it is a :class:`FixtureFormatError`, as is a row or sum line with fewer than
one dart, a negative field or a field too long for ``int`` to convert.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .core import CountTable, faces_from_key


class FixtureFormatError(ValueError):
    """A fixture line that is neither a row, a sum row, nor a header before them."""


FixtureRow = namedtuple("FixtureRow", "darts vertices hyperedges faces count")
FixtureSum = namedtuple("FixtureSum", "darts total")


_INT = re.compile(r"-?[0-9]+")


def parse_table(text: str, source: str = "<string>"):
    """Parse fixture text into (rows, sums); errors name the source and line.

    A row or sum line with fewer than one dart, a negative field or a field
    with more digits than ``int`` converts is a :class:`FixtureFormatError`;
    a field is an optional minus sign and ASCII digits."""
    rows: list[FixtureRow] = []
    sums: list[FixtureSum] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        tokens = line.split()
        if not tokens:
            continue
        if "sum" in tokens:
            if len(tokens) != 3 or tokens[1] != "sum" or not all(
                    _INT.fullmatch(tok) for tok in (tokens[0], tokens[2])):
                raise FixtureFormatError(f"{where}: malformed sum row {line!r}")
            sums.append(FixtureSum(*_fields((tokens[0], tokens[2]), where, line)))
            continue
        numeric = [bool(_INT.fullmatch(tok)) for tok in tokens]
        if not any(numeric):
            if rows or sums:
                raise FixtureFormatError(
                    f"{where}: non-numeric line after the first row {line!r}")
            continue  # column header
        if not all(numeric):
            raise FixtureFormatError(f"{where}: unparseable row {line!r}")
        if len(tokens) != 5:
            raise FixtureFormatError(f"{where}: expected 5 columns, got {line!r}")
        rows.append(FixtureRow(*_fields(tokens, where, line)))
    return rows, sums


def _fields(tokens, where: str, line: str) -> list[int]:
    """The integer fields of a row or sum line; FixtureFormatError for a
    field with more digits than ``int`` converts, a dart count (the first
    field) below 1 or a negative field."""
    try:
        fields = [int(tok) for tok in tokens]
    except ValueError:
        raise FixtureFormatError(
            f"{where}: a field exceeds the integer-string digit limit") from None
    if fields[0] < 1 or min(fields) < 0:
        raise FixtureFormatError(
            f"{where}: need darts >= 1 and no negative field, got {line!r}")
    return fields


def table_rows(table: CountTable):
    """The table's rows in display order: by darts, then faces descending,
    then vertices ascending."""
    rows = [FixtureRow(t, v, e, faces_from_key(g, t, v, e), count)
            for (g, t, v, e), count in table.items()]
    rows.sort(key=lambda r: (r.darts, -r.faces, r.vertices))
    return rows


def render_table(table: CountTable, count_header: str = "h") -> str:
    """Fixed-width text of the table, matching the fixture layout."""
    lines = [f"{'d':>4}{'v':>4}{'e':>4}{'f':>4}   {count_header}"]
    for d, block in groupby(table_rows(table), key=attrgetter("darts")):
        total = 0
        for r in block:
            lines.append(f"{d:4d}{r.vertices:4d}{r.hyperedges:4d}{r.faces:4d}   {r.count}")
            total += r.count
        lines.append("")
        lines.append(f"{d:4d}{'sum':>12}   {total}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_json(table: CountTable) -> str:
    """JSON rows; counts are decimal strings since they exceed 64-bit range."""
    import json   # here, not at module level: only --format json needs it

    out = []
    for r in table_rows(table):
        out.append({
            "genus": table.genus,
            "darts": r.darts,
            "vertices": r.vertices,
            "hyperedges": r.hyperedges,
            "faces": r.faces,
            "count": str(r.count),
        })
    return json.dumps(out, indent=2)


_FIXTURE_NAME = re.compile(r"(rooted|unrooted)-g([0-9]+)\.txt")


def discover_fixtures(directory: str | Path):
    """(kind, genus, path) for each fixture file named <kind>-g<genus>.txt in
    ``directory``, as a list sorted by file name."""
    found = []
    for path in sorted(Path(directory).iterdir()):
        m = _FIXTURE_NAME.fullmatch(path.name)
        if m:
            found.append((m.group(1), int(m.group(2)), path))
    return found
