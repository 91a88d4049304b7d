"""iclust benchmark: one workload, whole rounds for a fixed time, one JSON line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are made from the seed; each
round runs the workload once in a fresh Python process (perfbench/worker.py)
and checks its outputs with the independent evaluator in perfbench/exact.py.
Rounds repeat until --seconds have passed (five at least). With --trace 0
the last line holds the end-to-end metrics, medians over rounds; with
--trace 1 traced and untraced rounds alternate and the last line holds the
per-layer metrics of the traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 150
MIN_ROUNDS = 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload, spec, rdir: Path, traced: bool) -> dict:
    """Run one fresh worker process; returns the full spec and the report, timed by the parent."""
    if "out" in spec:
        Path(spec["out"]).unlink(missing_ok=True)
    spec = dict(spec, kind=workload.kind, src=str(ROOT / "src"), trace=traced,
                report=str(rdir / "report.json"), stdout=str(rdir / "stdout.txt"),
                trace_file=str(rdir / "trace.tsv"))
    Path(spec["report"]).unlink(missing_ok=True)
    spec_path = rdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("ICL_THREADS", "PYTHONPATH")}
    t_spawn = _now()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            env=env, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_exit = _now()
    report = {}
    if code == 0 and Path(spec["report"]).is_file():
        report = json.loads(Path(spec["report"]).read_text(encoding="utf-8"))
    report["wall_s"] = t_exit - t_spawn
    if report.get("search_start") is not None:
        report["setup_s"] = report["search_start"] - t_spawn
        report["search_s"] = report["search_end"] - report["search_start"]
    return spec, report


def end_to_end(reports) -> dict:
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "search_s": (statistics.median(r["search_s"] for r in reports), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024.0 for r in reports), "MB"),
    }


def _layers(report, sample_s) -> dict:
    """Per-layer figures of one traced round."""
    sp, c = report["spans"], report["counts"]

    def total(name):
        return sp[name]["total_s"]

    def per_call(name, key="total_s", scale=1.0):
        calls = sp[name]["calls"]
        return scale * sp[name][key] / calls if calls else 0.0

    proposals = c.get("proposals", 0)
    return {
        "cli.import_s": (report["import_s"], "s"),
        "cli.search_cpu_s": (report["search_cpu_s"], "s"),
        "io.read_csv_s": (total("io.read_csv") if "io.read_csv" in sp else 0.0, "s"),
        "io.standardize_s": (total("io.standardize") if "io.standardize" in sp else 0.0, "s"),
        "io.write_result_s": (total("io.write_result") if "io.write_result" in sp else 0.0, "s"),
        "io.distance_matrix_s": (total("io.distance_matrix"), "s"),
        "io.distance_matrix_mb": (c.get("distance_matrix_bytes", 0) / 2**20, "MB"),
        "optimizer.multi_start_s": (per_call("optimizer.multi_start"), "s"),
        "optimizer.restart_s": (per_call("optimizer.restart"), "s"),
        "optimizer.restart_self_s": (per_call("optimizer.restart", "self_s"), "s"),
        "optimizer.proposals": (proposals, "count"),
        "optimizer.accepted": (c.get("accepted", 0), "count"),
        "optimizer.accept_ratio": (c.get("accepted", 0) / proposals if proposals else 0.0,
                                   "ratio"),
        "optimizer.block_rows_mean": (c.get("block_rows", 0) / proposals if proposals else 0.0,
                                      "rows"),
        "optimizer.sweeps_run": (c.get("sweeps_run", 0), "count"),
        "optimizer.restarts_at_best": (c.get("restarts_at_best", 0), "count"),
        "icl.best_move_us": (per_call("icl.best_move", scale=1e6), "us"),
        "icl.best_move_self_us": (per_call("icl.best_move", "self_s", 1e6), "us"),
        "icl.kernel_rows_mean": (c.get("kernel_rows", 0) / proposals if proposals else 0.0,
                                 "rows"),
        "icl.apply_move_us": (per_call("icl.apply_move", scale=1e6), "us"),
        "icl.make_state_s": (total("icl.make_state"), "s"),
        "icl.refresh_calls": (sp["icl.refresh_state"]["calls"], "count"),
        "model.from_points_us": (per_call("model.from_points", scale=1e6), "us"),
        "model.from_points_calls": (sp["model.from_points"]["calls"], "count"),
        "model.stats_downdate_us": (per_call("model.stats_downdate", scale=1e6), "us"),
        "model.stats_downdate_calls": (sp["model.stats_downdate"]["calls"], "count"),
        "generator.sample_s": (sample_s, "s"),
    }


def per_layer(traced, untraced, sample_s) -> dict:
    rounds = [_layers(r, sample_s) for r in traced]
    out = {name: (statistics.median(r[name][0] for r in rounds), unit)
           for name, unit in ((k, v[1]) for k, v in rounds[0].items())}
    plain = statistics.median(r["search_s"] for r in untraced)
    extra = statistics.median(r["search_s"] for r in traced) - plain
    out["trace.search_overhead_s"] = (extra, "s")
    out["trace.search_overhead_pct"] = (100.0 * extra / plain, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still reaches the finally that kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "iclust" / "__init__.py").is_file():
        print(f"error: no iclust sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    import exact

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    selftest = exact.self_test()
    evaluator_ok = selftest < 1e-9
    if not evaluator_ok:
        print(f"evaluator self-test failed: closed form vs chain rule {selftest:.3g}",
              file=sys.stderr)

    outdir = OUT / workload.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    spec, ctx = workload.prepare(args.seed, ROOT, outdir)

    reports = {False: [], True: []}
    attempted = failed = 0
    start = _now()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            rdir = outdir / f"round{len(reports[False]) + len(reports[True])}"
            rdir.mkdir()
            full_spec, report = run_round(workload, spec, rdir, traced)
            ops = workload.check(full_spec, report, ctx)
            bad = [name for name, ok in ops if not ok]
            attempted += len(ops)
            failed += len(bad)
            if bad:
                print(f"{rdir.name}: failed {', '.join(bad[:8])}", file=sys.stderr)
            reports[traced].append(report)
        done = len(reports[False])
        if _now() - start >= args.seconds and done >= (1 if args.trace else MIN_ROUNDS):
            break

    summary = [{k: v for k, v in r.items() if k not in ("spans", "results")} | {"traced": t}
               for t, rs in reports.items() for r in rs]
    (outdir / "rounds.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    usable = {t: [r for r in rs if "search_s" in r and "peak_rss_kb" in r]
              for t, rs in reports.items()}
    if not usable[False] or (args.trace and not usable[True]):
        metrics = {}
    elif args.trace:
        metrics = per_layer(usable[True], usable[False], ctx["sample_s"])
    else:
        metrics = end_to_end(usable[False])

    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(reports[False]) + len(reports[True])} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    result = {
        "correct": evaluator_ok and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
