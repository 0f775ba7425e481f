"""Self-time arithmetic of the benchmark's span tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, self_times  # noqa: E402


def test_self_time_of_a_nested_tree_with_overlapping_children():
    # 0 root [0, 100]
    # 1   a  [10, 40]      children of root a and b overlap in [30, 40]
    # 2     a1 [15, 20]
    # 3   b  [30, 60]
    # 4   c  [90, 120]     runs past its parent's end: only [90, 100] is covered
    # 5 other root [200, 210], no children
    start = [0, 10, 15, 30, 90, 200]
    end = [100, 40, 20, 60, 120, 210]
    parent = [-1, 0, 1, 0, 0, -1]
    got = self_times(start, end, parent)
    # root: 100 minus the union [10, 60] + [90, 100] = 100 - 60
    np.testing.assert_array_equal(got, [40.0, 25.0, 5.0, 30.0, 30.0, 10.0])


def test_self_time_when_one_child_contains_another():
    start = [0, 0, 5, 50]
    end = [100, 40, 20, 80]
    parent = [-1, 0, 0, 0]
    np.testing.assert_array_equal(self_times(start, end, parent), [30.0, 40.0, 15.0, 30.0])


def test_wrapper_records_parent_links_and_failures():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = tracer.wrap(inner, "m.inner")
    outer_w = tracer.wrap(lambda x: inner_w(x) + inner_w(x), "m.outer")
    tracer.enabled = True
    assert outer_w(2) == 4
    try:
        outer_w(-1)
    except ValueError:
        pass
    arr = tracer.arrays()
    names = [tracer.names[i] for i in arr["name_id"]]
    assert names == ["m.outer", "m.inner", "m.inner", "m.outer", "m.inner"]
    assert arr["parent"].tolist() == [-1, 0, 0, -1, 3]
    assert arr["failed"].tolist() == [0, 0, 0, 1, 1]
    own = self_times(arr["start_ns"], arr["end_ns"], arr["parent"])
    assert np.all(own >= 0)
