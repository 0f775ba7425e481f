"""The %-template CSV writer gives the bytes of ``csv.writer`` with 17-digit floats.

``csv.writer`` over cells pre-formatted ``"{:.17g}"`` is the reference: the
golden digests of every artifact pin the bytes it writes.
"""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmpkit.csvout import CHUNK_ROWS, write_csv

F17 = "{:.17g}".format
FORMATS = {"f": "%.17g", "i": "%s", "s": "%s"}
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308,
                  0.1, -1.5, np.float64(0.3), np.float64(-2.5e-300), np.float64("nan")]


def _both(tmp_path, header, kinds, rows) -> tuple:
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([F17(v) if k == "f" else v for k, v in zip(kinds, row)] for row in rows)
    write_csv(new, header, ",".join(FORMATS[k] for k in kinds), iter(rows))
    return ref.read_bytes(), new.read_bytes()


CELLS = {
    "f": st.floats(allow_nan=True, allow_infinity=True) | st.floats().map(np.float64),
    "i": st.integers(-2**63, 2**63 - 1) | st.integers(-2**63, 2**63 - 1).map(np.int64),
    "s": st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True),
}


@st.composite
def tables(draw):
    kinds = draw(st.text(alphabet="fis", min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=20))
    return kinds, rows


@settings(max_examples=200, deadline=None)
@given(tables())
@example(("f", [(v,) for v in SPECIAL_FLOATS]))
@example(("ifs", [(0, -0.0, "jump"), (np.int64(-5), 5e-324, "phase_b_entry"),
                  (2**63 - 1, np.float64(1e308), "division")]))
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    kinds, rows = table
    ref, new = _both(tmp_path_factory.mktemp("csv"), [f"c{k}" for k in range(len(kinds))],
                     kinds, rows)
    assert new == ref


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                    2 * CHUNK_ROWS + 3])
def test_write_csv_matches_across_chunks(tmp_path, n_rows):
    rows = [(i, i / 7.0, "regime") for i in range(n_rows)]
    ref, new = _both(tmp_path, ["i", "x", "label"], "ifs", rows)
    assert new == ref and new.count(b"\r\n") == n_rows + 1
