"""The toruslab benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload prop-sweep --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all --seed 1            # every workload, one row each
  python3 perfbench/run.py --all --seed 1 --trace 1  # per-layer table
  python3 perfbench/run.py --check-trace --workload structure --seed 1
  python3 perfbench/run.py --compare A.json B.json

A single-workload run prints a readable row and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  Every
run also writes its full result (metrics, per-task times and failures,
and the run environment) to .perfbench-out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can be imported here or in a child:
# polarization_search calls numpy's eigh on tiny matrices.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer, empty_snapshot, merge, per_layer_metrics, write_spans  # noqa: E402
from workloads import OUT, ROOT, TASK_LIMIT_S, WORKLOADS  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
#: set-up runs once in the measuring process and this many more times in
#: fresh processes; setup_s is the median
SETUP_PROBES = 2


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_digest():
    """sha256 over src/, so that a checkout without .git is identified."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _alarm(signum, frame):
    raise TimeoutError(f"task exceeded {TASK_LIMIT_S} s")


def _timed_setup(workload, after_import=None):
    t0 = time.perf_counter()
    workload.setup(after_import)
    return time.perf_counter() - t0


def _calibrated(measure, sensitivity):
    """(wall seconds, reference seconds) of measure(), probed around it"""
    before = calibrate.probe()
    wall = measure()
    return wall, calibrate.scale(wall, [before, calibrate.probe()], sensitivity)


def _setup_probe(name, seed):
    """set-up time of the same workload in a fresh process"""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name, seed, seconds, trace):
    """Set up, run the closed loop, check every output, return the result."""
    env = environment()
    OUT.mkdir(exist_ok=True)
    trace_dir = None
    if trace and name == "cli-cold":
        trace_dir = OUT / f"trace-{name}-s{seed}"
        trace_dir.mkdir(exist_ok=True)
        for old in trace_dir.glob("child-*.json"):
            old.unlink()
    workload = WORKLOADS[name](seed, trace_dir)
    # the traced run of an in-process workload traces its set-up builds too
    tracer = Tracer() if trace and name != "cli-cold" else None
    sensitivity = workload.HOST_SENSITIVITY
    setup_samples = [_calibrated(lambda: _timed_setup(workload, tracer and tracer.install),
                                 sensitivity)]
    if not trace:
        setup_samples += [_calibrated(lambda: _setup_probe(name, seed), sensitivity)
                          for _ in range(SETUP_PROBES)]

    tasks = []
    busy = 0.0
    signal.signal(signal.SIGALRM, _alarm)
    probe_before = calibrate.probe()
    while True:
        label, thunk = workload.next_task()
        if tracer is not None:
            tracer.task = label
            token = tracer.begin("task")
        # a traced run takes no probes inside tasks: they would count as
        # self time of whatever function they interrupt
        during = calibrate.InTaskProbes(workload.PROBE_IN_TASKS and not trace)
        t0 = time.perf_counter()
        signal.alarm(TASK_LIMIT_S)
        try:
            with during:
                error = thunk()
        except Exception as exc:  # a failing task is counted, never dropped
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            signal.alarm(0)
        elapsed = time.perf_counter() - t0 - during.paused_s
        if tracer is not None:
            tracer.end(token)
        probe_after = calibrate.probe()
        busy += elapsed
        probes = [probe_before, *during.samples, probe_after]
        tasks.append({"task": label, "s": elapsed,
                      "ref_s": calibrate.scale(elapsed, probes, sensitivity),
                      "probe_s": statistics.mean(probes), "probes": len(probes),
                      "error": error})
        probe_before = probe_after
        if trace:
            if len(tasks) == workload.trace_tasks:
                break
        elif busy >= seconds:
            break
    env["loadavg_end"] = list(os.getloadavg())

    durations = [t["ref_s"] for t in tasks]
    wall = [t["s"] for t in tasks]
    failed = [t for t in tasks if t["error"]]
    n = len(tasks)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env,
        "correct": not failed, "attempted": n, "failed": len(failed),
        "summary": {
            "tasks": n,
            "failed_frac": len(failed) / n,
            "beyond_p90": sum(1 for x in durations if x > _quantile(durations, 90)),
            "setup_samples_s": [w for w, _ in setup_samples],
            "setup_samples_ref_s": [r for _, r in setup_samples],
            "wall_tasks_per_s": n / sum(wall),
            "probe_s_median": statistics.median(t["probe_s"] for t in tasks),
        },
        "tasks": tasks,
    }
    if trace:
        if tracer is not None:
            snap, import_s = tracer.snapshot(), 0.0
            spans = tracer.spans
        else:
            snap, import_s, spans = empty_snapshot(), 0.0, []
            for child in workload.traces:
                merge(snap, child)
                import_s += child["import_s"]
                spans += child["spans"]
        metrics = per_layer_metrics(snap, n, import_s)
        write_spans(OUT / f"spans-{name}-s{seed}.jsonl", spans)
        result["summary"]["spans"] = len(spans)
        result["summary"]["traced_tasks_per_s"] = n / sum(durations)
    else:
        metrics = {
            "tasks_per_s": (n / sum(durations), "1/s"),
            "task_s_p50": (statistics.median(durations), "s"),
            "task_s_p90": (_quantile(durations, 90), "s"),
            "setup_s": (statistics.median(r for _, r in setup_samples), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = OUT / f"{name}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["path"] = str(path.relative_to(ROOT))
    return result


def _row(result):
    s = result["summary"]
    if result["trace"]:
        head = [f"{s['tasks']} traced tasks", f"{s['spans']} spans",
                f"traced tasks_per_s={s['traced_tasks_per_s']:.4f} 1/s"]
    else:
        m = result["metrics"]
        head = [f"{k}={m[k]['value']:.4g} {m[k]['unit']}" for k in m]
        head.insert(3, f"n={s['tasks']} ({s['beyond_p90']} beyond p90)")
        head.append(f"wall tasks_per_s={s['wall_tasks_per_s']:.4g} 1/s"
                    f" (probe median {s['probe_s_median'] * 1e3:.2f} ms)")
    head.append(f"failed_frac={s['failed_frac']:.4g} ({result['failed']}/{result['attempted']})")
    return f"{result['workload']:<11} " + "  ".join(head)


def _final_line(result):
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


# ---------------------------------------------------------------------------
# modes built on single-workload runs
# ---------------------------------------------------------------------------

def _child_run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run exited {proc.returncode}")
    return json.loads((OUT / f"{name}-s{seed}-t{int(trace)}.json").read_text())


def run_all(seed, seconds, trace):
    """Every workload in turn, each in a fresh process; one row per workload."""
    results = {name: _child_run(name, seed, seconds, trace) for name in WORKLOADS}
    path = OUT / f"all-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    if trace:
        print(f"{'metric':<48}" + "".join(f"{w:>14}" for w in results) + "  unit")
        for metric, first in next(iter(results.values()))["metrics"].items():
            print(f"{metric:<48}" + "".join(
                f"{r['metrics'][metric]['value']:>14.6g}" for r in results.values())
                + f"  {first['unit']}")
    for r in results.values():
        print(_row(r) + "".join(f"\n  FAILED {t['task']}: {t['error']}"
                                for t in r["tasks"] if t["error"]))
    print(f"result: {path.relative_to(ROOT)}")
    return all(r["correct"] for r in results.values())


def _load_results(path):
    data = json.loads(open(path, encoding="utf-8").read())
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def compare(path_a, path_b):
    """Ratio B/A of every metric; flag end-to-end moves beyond the bound."""
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = _load_results(path_a), _load_results(path_b)
    flagged = 0
    for name in [w for w in a if w in b]:
        print(f"== {name}")
        ma, mb = a[name]["metrics"], b[name]["metrics"]
        for metric in [k for k in ma if k in mb]:
            va, vb = ma[metric]["value"], mb[metric]["value"]
            ratio = vb / va if va else float("nan")
            flag = ""
            if metric in bounds and va:
                bound, lower = bounds[metric]["bound"], bounds[metric]["better"] == "lower"
                worse = ratio > 1 + bound if lower else ratio < 1 - bound
                better = ratio < 1 - bound if lower else ratio > 1 + bound
                flag = "  WORSE beyond bound" if worse else "  better beyond bound" if better else ""
                flagged += worse
            print(f"  {metric:<48} {va:>12.6g} -> {vb:<12.6g} x{ratio:.4f}{flag}")
    return flagged == 0


def check_trace(name, seed, seconds):
    """Two traced runs must repeat every .calls count; report the overhead.

    Traced and untraced runs of one seed alternate, twice each.  The
    overhead compares their tasks_per_s over the same first tasks.
    """
    traced, plain = [], []
    for _ in range(2):
        traced.append(_child_run(name, seed, seconds, True))
        plain.append(_child_run(name, seed, seconds, False))
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in traced]
    diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
    k = len(traced[0]["tasks"])
    if min(len(r["tasks"]) for r in plain) < k:
        raise SystemExit(f"an untraced run did fewer than the {k} traced tasks; "
                         "give more --seconds")
    plain_rate = statistics.mean(k / sum(t["ref_s"] for t in r["tasks"][:k]) for r in plain)
    traced_rate = statistics.mean(r["summary"]["traced_tasks_per_s"] for r in traced)
    print(f"{name} seed {seed}: {len(calls[0])} .calls counts, "
          + ("identical in both traced runs" if not diff else f"DIFFER: {', '.join(diff)}"))
    print(f"tasks_per_s over the first {k} tasks, mean of two runs each: untraced "
          f"{plain_rate:.4f}, traced {traced_rate:.4f}, overhead {1 - traced_rate / plain_rate:+.1%}")
    return not diff


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--check-trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not (ROOT / "src" / "toruslab" / "__init__.py").is_file():
        print(f"no toruslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return 0 if run_all(args.seed, args.seconds, args.trace) else 1
    if args.workload is None:
        p.error("give --workload, --all or --compare")
    if args.check_trace:
        return 0 if check_trace(args.workload, args.seed, args.seconds) else 1
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        print(_timed_setup(WORKLOADS[args.workload](args.seed)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for t in result["tasks"]:
        if t["error"]:
            print(f"FAILED {t['task']}: {t['error']}")
    print(_row(result))
    print(f"result: {result['path']}")
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
