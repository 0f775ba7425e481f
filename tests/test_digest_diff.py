"""``scripts/digest_diff.py`` compares the task digests of two result sets."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest_diff.py"


def _load():
    spec = importlib.util.spec_from_file_location("digest_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(directory: Path, name: str, digests: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps({
        "workload": name.split("-")[0], "trace": 0, "seed": 1, "digests": digests}))


def test_identical_maps_exit_zero(tmp_path, capsys):
    dd = _load()
    digests = {"a": {"out.csv": "11"}, "b": {"x": "22", "y": "33"}}
    for side in ("parent", "change"):
        _result(tmp_path / side, "paths_recorded-seed1-trace0.json", digests)
    assert dd.diff(tmp_path / "parent", tmp_path / "change") == {
        "paths_recorded-seed1-trace0.json": []}
    assert dd.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert "0 task(s)" in capsys.readouterr().out


def test_lists_differing_and_missing_tasks(tmp_path, capsys):
    dd = _load()
    _result(tmp_path / "parent", "w-seed1-trace0.json",
            {"same": {"f": "1"}, "moved": {"f": "2"}, "gone": {"f": "3"},
             "failed": {"f": "4"}})
    _result(tmp_path / "change", "w-seed1-trace0.json",
            {"same": {"f": "1"}, "moved": {"f": "9"}, "new": {"f": "5"}, "failed": {}})
    # a file on one side only is not compared
    _result(tmp_path / "parent", "w-seed2-trace0.json", {"x": {"f": "0"}})
    assert dd.diff(tmp_path / "parent", tmp_path / "change") == {
        "w-seed1-trace0.json": ["failed", "gone", "moved", "new"]}
    assert dd.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "w-seed1-trace0.json: moved" in out and "w-seed2" not in out


def test_no_shared_file_exits_one(tmp_path):
    dd = _load()
    _result(tmp_path / "parent", "a-seed1-trace0.json", {"t": {"f": "1"}})
    _result(tmp_path / "change", "b-seed1-trace0.json", {"t": {"f": "1"}})
    assert dd.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
