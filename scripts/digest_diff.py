#!/usr/bin/env python3
"""List the perfbench tasks whose output digests differ between two result sets.

    python scripts/digest_diff.py PARENT_DIR CHANGE_DIR

Each directory holds ``perfbench/run.py`` result files.  For every file name
present in both, a task is listed as ``<file>: <task>`` when its ``digests``
differ, or when one side has no digest for it (the task is absent, or wrote
nothing, as a failed task does).  The exit code is 1 when any task is listed or
the directories share no result file, and 0 when every compared digest map is
identical.
"""

import json
import sys
from pathlib import Path


def diff(parent_dir, change_dir) -> dict:
    """{result file name: sorted tasks whose digests differ or are missing},
    for every result file name present in both directories."""
    out = {}
    for path in sorted(Path(parent_dir).glob("*.json")):
        other = Path(change_dir) / path.name
        if not other.is_file():
            continue
        a = json.loads(path.read_text()).get("digests", {})
        b = json.loads(other.read_text()).get("digests", {})
        out[path.name] = sorted(t for t in a.keys() | b.keys()
                                if not a.get(t) or not b.get(t) or a[t] != b[t])
    return out


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    found = diff(*argv)
    if not found:
        print("digest_diff: no result file is present in both directories")
        return 1
    for name, tasks in found.items():
        for task in tasks:
            print(f"{name}: {task}")
        print(f"# {name}: {len(tasks)} task(s) differ or are missing")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
