"""The one CSV writer behind every artifact: a header row, then data rows.

Callers format floats with :data:`F17` (17 significant digits, enough to
round-trip a double), so reruns are byte-identical.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

F17 = "{:.17g}".format


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
