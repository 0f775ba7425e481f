"""The one CSV writer behind every artifact: a header row, then data rows.

Dialect: comma-separated, rows end in ``\\r\\n``, nothing is quoted (so labels
hold no comma, quote or line break), and floats are ``%.17g``, which round-trips
a double, so reruns are byte-identical.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

CHUNK_ROWS = 512    # rows per write: bounded memory, few calls


def write_csv(path, header: Sequence[str], fmt: str, rows: Iterable[tuple]) -> None:
    """Write ``header``, then each row tuple through the %-template ``fmt``
    (for example ``"%s,%.17g"``: ``%.17g`` for floats, ``%s`` for ints and labels)."""
    line, rows = fmt + "\r\n", iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := [line % row for row in islice(rows, CHUNK_ROWS)]:
            fh.write("".join(chunk))
