"""``scripts/bench_fold.py`` folds perfbench result files into one record."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_fold.py"


def _load_fold():
    spec = importlib.util.spec_from_file_location("bench_fold", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fold


def _result(path: Path, seed, failed, attempted, wall_s, work_per_s, sha, **env):
    path.write_text(json.dumps({
        "workload": "paths_recorded", "trace": 0, "seed": seed, "seconds": 34.0,
        "failed": failed, "attempted": attempted,
        "metrics": {"wall_s": wall_s, "work_per_s": work_per_s},
        "environment": {"git_sha": sha, "git_dirty": False, "src_sha256": "s" + sha,
                        "python": "3.11.7", **env},
    }))
    return path


def test_fold_two_runs_of_one_workload(tmp_path):
    fold = _load_fold()
    paths = [
        _result(tmp_path / "b.json", 7, 1, 100, 3.0, 10.0, "abc", cpu_count=2),
        _result(tmp_path / "a.json", 5, 0, 120, 2.0, 14.0, "abc", cpu_count=4),
        _result(tmp_path / "c.json", 5, 2, 80, 2.5, 11.0, "def", cpu_count=2),
    ]
    out = fold(paths)
    assert list(out) == ["paths_recorded-trace0"]
    rec = out["paths_recorded-trace0"]
    assert rec["runs"] == 3
    assert rec["seeds"] == [5, 7]
    assert rec["seconds"] == [34.0]
    assert rec["failed"] == 3 and rec["attempted"] == 300
    assert rec["median"] == {"wall_s": 2.5, "work_per_s": 11.0}
    assert rec["q1"] == {"wall_s": 2.25, "work_per_s": 10.5}
    assert rec["q3"] == {"wall_s": 2.75, "work_per_s": 12.5}
    assert rec["source"] == [
        {"git_sha": "abc", "git_dirty": False, "src_sha256": "sabc"},
        {"git_sha": "def", "git_dirty": False, "src_sha256": "sdef"},
    ]
    # the environment of the first file in path order, without the source keys
    assert rec["environment"] == {"python": "3.11.7", "cpu_count": 4}


def test_fold_keeps_trace_modes_apart(tmp_path):
    fold = _load_fold()
    plain = _result(tmp_path / "a.json", 1, 0, 10, 1.0, 5.0, "abc")
    traced = json.loads(plain.read_text())
    traced["trace"] = 1
    (tmp_path / "b.json").write_text(json.dumps(traced))
    out = fold([plain, tmp_path / "b.json"])
    assert sorted(out) == ["paths_recorded-trace0", "paths_recorded-trace1"]
    assert out["paths_recorded-trace0"]["median"] == {"wall_s": 1.0, "work_per_s": 5.0}


def test_quartiles_match_numpy_percentiles(tmp_path):
    import numpy as np
    fold = _load_fold()
    walls = [2.0, 9.0, 3.5, 4.0, 1.0, 6.0, 2.5, 8.0, 3.0, 5.0]
    paths = [_result(tmp_path / f"{k}.json", 97, 0, 10, w, 1.0 / w, "abc")
             for k, w in enumerate(walls)]
    rec = fold(paths)["paths_recorded-trace0"]
    q1, med, q3 = np.percentile(walls, [25, 50, 75])
    assert rec["median"]["wall_s"] == med
    assert (rec["q1"]["wall_s"], rec["q3"]["wall_s"]) == (q1, q3)
    # one run: both quartiles are the run's value
    one = fold(paths[:1])["paths_recorded-trace0"]
    assert one["q1"] == one["median"] == one["q3"] == {"wall_s": 2.0, "work_per_s": 0.5}
