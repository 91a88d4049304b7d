"""The workloads: their inputs, made from the seed, and their output checks.

Each workload has a ``prepare(seed, root, outdir)`` that writes the inputs and
returns the worker spec plus what the checks need, and a ``check(spec, report,
ctx)`` that returns one (name, ok) pair per operation of a round. The list of
operations depends only on the workload, never on the outcome, so every
round attempts the same operations.

Sizes are cut from the full experiments (fewer restarts and sweeps) so a
round takes a few seconds and a run holds several rounds; README.md gives
the full-size figures.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from pathlib import Path

import numpy as np

import exact

REL_TOL = 1e-9        # reported ICL against the independent rescoring
MOVE_TOL = 1e-6       # largest single-move gain allowed at a plain-search stop


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a))


def _compact(labels, k: int) -> bool:
    return len(labels) > 0 and min(labels) == 1 and len(set(labels)) == k == max(labels)


def _write_csv(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _standardize(values: np.ndarray) -> np.ndarray:
    return (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)


def _sample(n: int, k: int, b: int, rng_seed):
    """Separated mixture draw from the model (tau = 0.001), timed as generator work."""
    import iclust

    params = iclust.MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(b), nu=b + 1.0, omega=0.5)
    t0 = time.perf_counter()
    sample = iclust.sample_dataset(n, k, params, np.random.default_rng(rng_seed))
    return sample.data.values, time.perf_counter() - t0


def _check_solution(prefix, values, sol, hp, extra=()):
    """Exactness and best-of-restarts checks of one search result."""
    if "error" in sol:
        return [(f"{prefix}exact", False), (f"{prefix}best_of_restarts", False)] + [
            (f"{prefix}{name}", False) for name, _ in extra]
    labels = sol["labels"]
    ok_exact = (len(labels) == len(values) and _compact(labels, sol["K"])
                and _rel_close(sol["icl"], exact.icl(values, labels, hp)))
    bests = [v for v in sol["restart_bests"] if v is not None]
    ok_best = bool(bests) and sol["icl"] == max(bests)
    return [(f"{prefix}exact", ok_exact), (f"{prefix}best_of_restarts", ok_best)] + [
        (f"{prefix}{name}", fn(sol)) for name, fn in extra]


class GalaxySweep:
    """`iclust sweep` on the standardised galaxy data over the 18-point grid."""

    name = "galaxy-sweep"
    kind = "cli"
    grid = list(itertools.product((0.1, 0.01, 0.001), (1.0, 0.1, 0.01), (0.5, 10.0)))
    restarts, sweeps = 2, 10
    # (tau, delta, alpha) cells whose optimum every restart tried has reached; the
    # other cells' optima are missed on some seeds (README, "Operations and checks")
    judged = ((0.01, 1.0, 10.0), (0.001, 1.0, 10.0))

    def prepare(self, seed, root, outdir):
        galaxy = root / "src" / "iclust" / "data" / "galaxy.csv"
        values = _standardize(np.loadtxt(galaxy, delimiter=",", skiprows=1, ndmin=2))
        out = outdir / "grid.csv"
        spec = {"argv": ["sweep", "--data", str(galaxy), "--standardize", "--gamma", "1",
                         "--mu", "0", "--tau-grid", "0.1,0.01,0.001", "--delta-grid", "1,0.1,0.01",
                         "--alpha-grid", "0.5,10", "--restarts", str(self.restarts),
                         "--sweeps", str(self.sweeps), "--seed", str(seed), "--out", str(out)],
                "out": str(out)}
        optima = {}
        for cell in self.judged:
            tau, dlt, alpha = cell
            hp = {"family": "uv", "alpha": alpha, "tau": tau, "mu": 0.0, "gamma": 1.0, "delta": dlt}
            optima[cell] = exact.interval_split_optimum(values, hp)
        return spec, {"optima": optima, "sample_s": 0.0}

    def check(self, spec, report, ctx):
        rows = {}
        path = Path(spec["out"])
        if report.get("exit_code") == 0 and path.is_file():
            with open(path, encoding="utf-8") as fh:
                for r in csv.DictReader(fh):
                    rows[(float(r["tau"]), float(r["delta"]), float(r["alpha"]))] = r
        ops = [("cli", report.get("exit_code") == 0 and len(rows) == len(self.grid))]
        for cell in self.grid:
            r = rows.get(cell)
            ops.append((f"search {cell}", r is not None and not r["error"] and int(r["k"]) >= 1))
        for cell in self.judged:
            r = rows.get(cell)
            best, best_k = ctx["optima"][cell]
            ok = (r is not None and not r["error"] and int(r["k"]) == best_k
                  and _rel_close(float(r["icl_ex"]), best))
            ops.append((f"optimum {cell}", ok))
        return ops


class Cluster3000:
    """`iclust cluster --standardize` on a 3000 x 3 CSV with five groups."""

    name = "cluster-3000"
    kind = "cli"
    restarts, sweeps = 2, 1

    def prepare(self, seed, root, outdir):
        values, sample_s = _sample(3000, 5, 3, [seed, 3000])
        data, out = outdir / "points.csv", outdir / "result.json"
        _write_csv(data, values)
        spec = {"argv": ["cluster", "--data", str(data), "--standardize",
                         "--restarts", str(self.restarts), "--sweeps", str(self.sweeps),
                         "--beta1", "0.2", "--beta2", "0.04", "--seed", str(seed),
                         "--out", str(out)],
                "out": str(out)}
        return spec, {"values": _standardize(values), "sample_s": sample_s}

    def check(self, spec, report, ctx):
        path = Path(spec["out"])
        ok = report.get("exit_code") == 0 and path.is_file()
        sol = {"error": "no result"}
        if ok:
            doc = json.loads(path.read_text(encoding="utf-8"))
            h = doc["hyperparams"]
            hp = {"family": "mv", "alpha": h["alpha"], "tau": h["tau"], "mu": h["mu"],
                  "nu": h["nu"], "omega": h["omega"]}
            sol = {"K": doc["K"], "icl": doc["icl_ex"], "labels": doc["labels"],
                   "restart_bests": doc["restart_best"]}
        else:
            hp = None
        return [("cli", ok)] + _check_solution("", ctx["values"], sol, hp)


class Plain150:
    """multi_start(algorithm="plain") over the 18-point Table-2 grid on criterion 7's data."""

    name = "plain-150"
    kind = "api"
    grid = list(itertools.product((0.1, 1.0, 10.0), (0.1, 0.01), (0.5, 4.0, 10.0)))
    restarts, sweeps, k_max = 2, 15, 20

    def prepare(self, seed, root, outdir):
        # criterion 7's separated data: a fixed dataset keeps the early-stopping
        # sweep count, and so the work per round, from varying with the seed
        values, sample_s = _sample(150, 4, 2, 2)
        np.save(outdir / "data.npy", values)
        mu = values.mean(axis=0).tolist()
        grid = [{"alpha": alpha, "tau": tau, "omega": omega, "nu": 3.0, "mu": mu,
                 "seed": 1000 * seed + i} for i, (omega, tau, alpha) in enumerate(self.grid)]
        spec = {"data": str(outdir / "data.npy"), "algorithm": "plain", "grid": grid,
                "restarts": self.restarts, "sweeps": self.sweeps, "beta1": 0.1, "beta2": 0.01,
                "k_max": self.k_max}
        return spec, {"values": values, "sample_s": sample_s}

    def check(self, spec, report, ctx):
        results = report.get("results") or [{"error": "no report"}] * len(spec["grid"])
        values = ctx["values"]
        ops = []
        for i, (point, sol) in enumerate(zip(spec["grid"], results)):
            ops.append((f"search {i}", "error" not in sol))
            hp = dict(point, family="mv")

            def local_optimum(s, hp=hp):
                # a plain search that stopped early ended on a sweep without gain
                if s["sweeps"] >= self.sweeps:
                    return True
                gain = exact.best_single_move_gain(values, s["labels"], hp, s["K"] < self.k_max)
                return gain <= MOVE_TOL
            ops += _check_solution(f"{i} ", values, sol, hp, [("local_optimum", local_optimum)])
        return ops


WORKLOADS = {w.name: w for w in (GalaxySweep(), Cluster3000(), Plain150())}
