"""One round of one workload in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the workload kind, its inputs and where to
put the report. Only the standard library is loaded before the timed import
of iclust, so the import time and the peak memory belong to the workload.
The search window is taken from the first entry into multi_start to the last
exit from it, on the monotonic clock that run.py also reads.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import sys
import threading
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SearchWindow:
    """First start and last end of the wrapped search calls, on any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.start = self.end = None
        self.cpu_start = self.cpu_end = None

    def wrap(self, fn):
        def timed(*args, **kwargs):
            with self._lock:
                if self.start is None:
                    self.start, self.cpu_start = _now(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.end, self.cpu_end = _now(), time.process_time()
        return timed


def _install_spans(tracer, iclust):
    from spans import add

    cli = sys.modules.get("iclust.cli")
    opt, icl, model = iclust.optimizer, iclust.icl, iclust.model

    def count_proposal(c, args, out):
        state, block = args[0], args[1]
        add(c, "proposals", 1)
        add(c, "block_rows", len(block))
        add(c, "kernel_rows", state.k + 2)

    def count_restart(c, args, out):
        add(c, "sweeps_run", int(out.trace[-1][0]))

    def count_multi_start(c, args, out):
        tol = 1e-9 * max(1.0, abs(out.icl))
        add(c, "restarts_at_best", sum(1 for v in out.restart_bests
                                       if v is not None and v >= out.icl - tol))

    def count_matrix(c, args, out):
        n, b = args[0].values.shape
        # diff and diff**2 (n*n*b each) plus the n*n result, 8 bytes a value
        add(c, "distance_matrix_bytes", 8 * n * n * (2 * b + 1))

    if cli is not None:
        for attr in ("read_csv", "standardize", "write_result"):
            tracer.wrap(cli, attr, f"io.{attr}")
        tracer.wrap(cli, "distance_matrix", "io.distance_matrix", count_matrix)
        tracer.wrap(cli, "multi_start", "optimizer.multi_start", count_multi_start)
    else:
        tracer.wrap(opt, "multi_start", "optimizer.multi_start", count_multi_start)
    tracer.wrap(opt, "distance_matrix", "io.distance_matrix", count_matrix)
    tracer.wrap(opt, "greedy_combined_icl", "optimizer.restart", count_restart)
    tracer.wrap(opt, "greedy_icl", "optimizer.restart", count_restart)
    tracer.wrap(icl, "make_state", "icl.make_state")
    tracer.wrap(icl, "best_move", "icl.best_move", count_proposal)
    tracer.wrap(icl, "apply_move", "icl.apply_move", lambda c, a, o: add(c, "accepted", 1))
    tracer.wrap(icl, "refresh_state", "icl.refresh_state")
    tracer.wrap(icl, "stats_downdate", "model.stats_downdate")
    tracer.wrap(model.GroupStats, "from_points", "model.from_points", static=True)


def _run_cli(spec, iclust, window, report):
    cli = iclust.cli
    cli.multi_start = window.wrap(cli.multi_start)
    with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        report["exit_code"] = cli.main(spec["argv"])


def _run_api(spec, iclust, window, report):
    import numpy as np

    data = iclust.DataSet(np.load(spec["data"]))
    search = window.wrap(iclust.optimizer.multi_start)
    results = []
    for point in spec["grid"]:
        params = iclust.MvHyperParams(alpha=point["alpha"], tau=point["tau"],
                                      mu=np.asarray(point["mu"]), nu=point["nu"],
                                      omega=point["omega"])
        config = iclust.SearchConfig(max_sweeps=spec["sweeps"], restarts=spec["restarts"],
                                     beta1=spec["beta1"], beta2=spec["beta2"],
                                     k_max=spec["k_max"], seed=point["seed"])
        try:
            sol = search(data, params, config, algorithm=spec["algorithm"])
        except (ValueError, iclust.NumericalError) as exc:
            results.append({"error": str(exc)})
            continue
        results.append({"K": sol.K, "icl": sol.icl, "labels": sol.allocation.labels.tolist(),
                        "restart_bests": list(sol.restart_bests), "sweeps": sol.sweeps_used})
    report["results"] = results
    report["exit_code"] = 0


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    importlib.import_module("iclust.cli" if spec["kind"] == "cli" else "iclust")
    report = {"import_s": time.perf_counter() - t0}
    iclust = sys.modules["iclust"]

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        _install_spans(tracer, iclust)

    window = SearchWindow()
    (_run_cli if spec["kind"] == "cli" else _run_api)(spec, iclust, window, report)
    report.update(search_start=window.start, search_end=window.end,
                  search_cpu_s=(window.cpu_end - window.cpu_start) if window.start else None,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counts"] = tracer.counts()
        tracer.write(spec["trace_file"])
    Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
