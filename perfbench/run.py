#!/usr/bin/env python3
"""pdmpkit benchmark: three workloads, end-to-end figures, and a traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload paths_recorded --seed 7 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each exists): ``ensemble_stream``,
``paths_recorded`` and ``forward_analysis``.  A workload is a fixed list of
tasks made from ``--seed`` (see ``workloads.py``).  Tasks run one after
another from this single process: a closed loop with one client.  A pass runs
the whole list; passes repeat while the next one, if it takes as long as the
last, ends nearer to ``--seconds`` than stopping now would (at least one).
Every pass of a seed must produce byte-identical outputs.

``--trace 0`` measures the end-to-end figures with no tracing installed:

- ``setup_s``: median over fresh interpreters of the time from launch to the
  end of set-up (``import pdmpkit``, config validation, model and solver
  construction);
- ``wall_s``: median wall time of a pass;
- ``task_p50_s``, ``task_p90_s``: per-task latency over all passes;
- ``work_per_s``: the workload's own throughput, which the printout names:
  ``sim_time_per_s`` (simulated path time per second, ensemble_stream),
  ``jumps_per_s`` (rows of trajectories.csv and events.csv per second,
  paths_recorded) or ``cell_steps_per_s`` (grid cells times steps per second
  of the solver tasks, forward_analysis);
- ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` (failed over attempted tasks) is printed too, and is the
``failed``/``attempted`` pair of the result line.

``--trace 1`` runs one untraced pass, then wraps pdmpkit's module boundaries
(``spans.py``) and runs traced passes; it reports the per-layer figures and
writes the spans next to the result file.

After the passes, every output of the first pass is checked against an
independent reference, one task is run again and its output digests compared,
and the result file ``perfbench/results/<workload>-seed<seed>-trace<t>.json``
is written with the environment.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# the program may use at most nproc workers; BLAS and OpenMP pools stay at one
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_pdmpkit():
    """Import pdmpkit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import pdmpkit

    if src.resolve() not in Path(pdmpkit.__file__).resolve().parents:
        raise ImportError(f"pdmpkit was imported from {pdmpkit.__file__}, not {src}")
    return pdmpkit


def _loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git(*args):
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _environment() -> dict:
    import numpy
    import scipy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pdmpkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "src_sha256": src.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def _digest(out) -> dict:
    """SHA-256 of every artifact a CLI task wrote, or of every array a library
    task returned."""
    import numpy as np

    if out is None:
        return {}
    if "artifacts" in out:
        return {Path(a).name: hashlib.sha256(Path(a).read_bytes()).hexdigest()
                for a in out["artifacts"]}
    res = {}
    for key in sorted(out):
        if isinstance(out[key], np.ndarray):
            v = np.ascontiguousarray(out[key])
            h = hashlib.sha256(f"{v.dtype}{v.shape}".encode())
            h.update(v.tobytes())
            res[key] = h.hexdigest()
    return res


def _setup_s(workload: str, seed: int) -> list:
    """Launch-to-ready times of fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=os.environ.copy())
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def _run_pass(tasks, work_dir: Path, tracer=None, task_base: int = 0):
    """Run every task once; returns (wall, latencies, outputs, errors)."""
    lat, outs, errors = [], [], {}
    if tracer is not None:
        tracer.enabled = True
    t_pass = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = task_base + i
        t0 = time.perf_counter()
        try:
            out = task.call(work_dir / f"{i:03d}")
        except Exception as exc:   # a failed task is counted; the run goes on
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.enabled = False
    return wall, lat, outs, errors


def _check(wl, outs, errors) -> dict:
    """Problems per task index, from the per-task and the pooled checks."""
    problems = {i: [msg] for i, msg in errors.items()}
    pooled = {}
    for i, (task, out) in enumerate(zip(wl.tasks, outs)):
        if out is None:
            continue
        try:
            found = task.check(task, out) if task.check is not None else []
        except Exception as exc:   # a check that cannot read the output fails it
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems.setdefault(i, []).extend(found)
        if task.pool is not None:
            pooled.setdefault(task.pool, []).append(i)
    for key, members in pooled.items():
        try:
            found = wl.pools[key]([(wl.tasks[i], outs[i]) for i in members])
        except Exception as exc:
            found = [(f"pooled check raised {type(exc).__name__}: {exc}", None)]
        for msg, involved in found:
            for pos in range(len(members)) if involved is None else involved:
                problems.setdefault(members[pos], []).append(f"[{key}] {msg}")
    return problems


def _quantiles(values):
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<52s} {value:>16.6g} {unit:<14s} {note}")


def _probe(args) -> int:
    os.environ.update(THREAD_ENV)
    _import_pdmpkit()
    import workloads

    workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _probe(args)
    os.environ.update(THREAD_ENV)
    load_before = _loadavg()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _import_pdmpkit()
        import workloads
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_dir = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return _measure(args, spec, work_dir, load_before)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, spec, work_dir: Path, load_before) -> int:
    import pdmpkit as pk
    import spans
    import workloads

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    setup_inprocess_s = time.perf_counter() - t0
    setup_times = _setup_s(args.workload, args.seed) if not args.trace else []

    walls, lats, digests, mismatched = [], [], [], set()
    errors_all, attempted = {}, 0
    first_outs = first_errors = None
    tracer, traced_walls = None, []
    t_start = time.perf_counter()
    while True:
        p = len(walls) + len(traced_walls)
        traced = bool(args.trace) and p > 0
        if traced and tracer is None:
            tracer = spans.Tracer()
            spans.install(tracer, pk)
            tracer.enabled = True       # the traced set-up wraps the expressions it compiles
            wl = workloads.build(args.workload, args.seed)
            tracer.enabled = False
        wall, lat, outs, errors = _run_pass(wl.tasks, work_dir / f"p{p}",
                                            tracer if traced else None, p * len(wl.tasks))
        (traced_walls if traced else walls).append(wall)
        lats.extend(lat)
        attempted += len(wl.tasks)
        errors_all.update({(p, i): e for i, e in errors.items()})
        dig = [_digest(o) for o in outs]
        if p == 0:
            first_outs, first_errors, digests = outs, errors, dig
        else:
            mismatched.update((p, i) for i, d in enumerate(dig) if d != digests[i])
            shutil.rmtree(work_dir / f"p{p}", ignore_errors=True)
        del outs    # only the first pass's outputs stay alive, so peak memory is pass-count free
        # the timed region ends as near to --seconds as whole passes allow: run
        # another pass only if it would overrun by less than stopping now falls short
        if (time.perf_counter() - t_start + wall / 2 > args.seconds
                and (not args.trace or traced_walls)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outputs of the first pass against their references, with tracing off
    problems = _check(wl, first_outs, first_errors)
    rerun = args.seed % len(wl.tasks)
    _, _, rerun_out, rerun_err = _run_pass([wl.tasks[rerun]], work_dir / "rerun")
    attempted += 1
    rerun_ok = not rerun_err and _digest(rerun_out[0]) == digests[rerun]
    n_pass = len(walls) + len(traced_walls)
    failed_ids = ({(p, i) for p in range(n_pass) for i in problems}
                  | set(errors_all) | mismatched)
    failed = len(failed_ids) + (0 if rerun_ok else 1)
    correct = failed == 0

    work = [t.work(t, o) if (t.work is not None and o is not None) else None
            for t, o in zip(wl.tasks, first_outs)]
    work_total = sum(w for w in work if w is not None)
    n = len(wl.tasks)
    rates = []
    for k in range(len(walls)):
        busy = sum(lats[k * n + i] for i, w in enumerate(work) if w is not None)
        rates.append(work_total / busy if busy else 0.0)

    e2e, layer = {}, {}
    if not args.trace:
        p50, p90 = _quantiles(lats)
        e2e = {"setup_s": statistics.median(setup_times), "wall_s": statistics.median(walls),
               "task_p50_s": p50, "task_p90_s": p90, "work_per_s": statistics.median(rates),
               "peak_rss_mb": peak_rss_mb}
    else:
        tracer.unpatch()
        layer = spans.layer_metrics(tracer, traced_walls, walls)

    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layer if args.trace else e2e
    missing = [m["name"] for m in spec_metrics if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec_metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}-spans.npz")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "loadavg_before": load_before, "loadavg_after": _loadavg(),
        "passes": {"untraced_wall_s": walls, "traced_wall_s": traced_walls},
        "setup_probe_s": setup_times, "setup_inprocess_s": setup_inprocess_s,
        "tasks_per_pass": n, "task_latency_samples": len(lats),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "work_per_pass": work_total, "work_metric": wl.work_metric,
        "metrics": {**e2e, **layer},
        "problems": {wl.tasks[i].name: msgs for i, msgs in problems.items()},
        "task_errors": {f"pass{p}:{wl.tasks[i].name}": e for (p, i), e in errors_all.items()},
        "digest_mismatches": sorted(f"pass{p}:{wl.tasks[i].name}" for p, i in mismatched),
        "rerun": {"task": wl.tasks[rerun].name, "identical": rerun_ok},
        "task_latency_s": {t.name: lats[i::n] for i, t in enumerate(wl.tasks)},
        "digests": {t.name: d for t, d in zip(wl.tasks, digests)},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def note(name, extra=""):
        better = units[name]["better"] if name in units else "lower"
        return f"({better} is better{extra})"

    print(f"workload {args.workload}  seed {args.seed}  tasks/pass {n}  "
          f"passes {len(walls)} untraced, {len(traced_walls)} traced")
    if not args.trace:
        _print_table("end-to-end", [
            ("setup_s", e2e["setup_s"], "s", note("setup_s", f", median of {len(setup_times)}")),
            ("wall_s", e2e["wall_s"], "s", note("wall_s", f", median of {len(walls)} passes")),
            ("task_p50_s", p50, "s", note("task_p50_s", f", n={len(lats)}")),
            ("task_p90_s", p90, "s",
             note("task_p90_s", f", n={len(lats)}, {sum(x > p90 for x in lats)} beyond")),
            (wl.work_metric, e2e["work_per_s"], wl.work_unit,
             "(higher is better, reported as work_per_s)"),
            ("fail_frac", failed / attempted, "ratio",
             f"(lower is better, {failed}/{attempted})"),
            ("peak_rss_mb", peak_rss_mb, "MB", note("peak_rss_mb")),
        ])
    else:
        _print_table("per-layer (traced)", [
            (name, value, units[name]["unit"] if name in units else "", "")
            for name, value in layer.items()])
    for name, msgs in result["problems"].items():
        print(f"FAILED {name}: {'; '.join(msgs)}")
    if not rerun_ok:
        print(f"FAILED rerun of {wl.tasks[rerun].name}: output bytes differ")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
