"""Command line surface: cluster, generate, sweep and eval subcommands.

Exit codes: 0 success, 1 validation failure (flags, hyperparameters or data
content), 2 I/O failure, 3 numerical failure in every restart. All commands
are deterministic for a fixed --seed. The combined search builds one --metric
neighbour order per command for all restarts and grid points: n^2 bytes up
to n = 256, 2*n^2 up to 65,536, then 4*n^2. sweep runs its grid points in
turn. A cluster, sweep or generate output whose directory does not exist
fails (exit 2) before the data is read or sampled.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import time
from pathlib import Path

import numpy as np

from .generator import sample_dataset
from .icl import icl_exact
from .io import (
    distance_matrix,  # unused here; perfbench/worker.py wraps this attribute
    neighbor_order,
    read_csv,
    read_labels_csv,
    standardize,
    write_csv,
    write_result,
)
from .model import MvHyperParams, NumericalError, UvHyperParams
from .optimizer import SearchConfig, multi_start, relabel_compact


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma separated list of numbers, got {text!r}")


# search flag -> SearchConfig field; each flag takes its field's default
_SEARCH_FLAGS = {"restarts": "restarts", "sweeps": "max_sweeps", "beta1": "beta1",
                 "beta2": "beta2", "kmax": "k_max"}
# grid fields in nesting order, leftmost varies slowest
_GRID_FIELDS = ("tau", "omega", "delta", "alpha", "nu", "beta1", "beta2")
# a valid value of each grid field; None takes the family default
_STAND_INS = dict(tau=1.0, omega=None, delta=None, alpha=1.0, nu=None, beta1=1.0, beta2=1.0)


def _add_run_flags(p):
    for flag, name in _SEARCH_FLAGS.items():
        default = getattr(SearchConfig, name)
        p.add_argument(f"--{flag}", type=type(default), default=default)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--metric", choices=["euclidean", "manhattan"], default="euclidean")
    p.add_argument("--algorithm", choices=["combined", "plain"], default="combined")


def _add_hyper_flags(p, mu_default="the data centre"):
    p.add_argument("--alpha", type=float, default=4.0)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--mu", type=str, default=None,
                   help=f"scalar or comma separated vector; defaults to {mu_default}")
    p.add_argument("--omega", type=float, default=None, help="multivariate; defaults to 1")
    p.add_argument("--nu", type=float, default=None, help="multivariate; defaults to b + 1")
    p.add_argument("--gamma", type=float, default=None, help="univariate shape; defaults to 0.5")
    p.add_argument("--delta", type=float, default=None, help="univariate rate; defaults to 0.5")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--plot-data", type=str, default=None,
                   help="write data columns plus the final label column as CSV")
    _add_hyper_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("generate", help="sample a synthetic dataset from the model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_hyper_flags(p, mu_default="the origin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="grid of searches, one row per hyperparameter point")
    p.add_argument("--data", required=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", type=str, default=None, help="full precision CSV of the table")
    for name in _GRID_FIELDS:
        p.add_argument(f"--{name}-grid", type=_float_list, default=None)
    _add_hyper_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="exact ICL of an externally supplied partition")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--standardize", action="store_true")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_eval)

    return parser


def _parse_mu(text, b: int, default: np.ndarray) -> np.ndarray:
    if text is None:
        return default
    try:
        parts = _float_list(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--mu: {exc}") from None
    if len(parts) == 1:
        return np.full(b, parts[0])
    if len(parts) != b:
        raise ValueError(f"--mu needs 1 or {b} values, got {len(parts)}")
    return np.asarray(parts)


def _family_values(args, b: int) -> dict:
    """The scalar prior flags of the family of b-column data, defaults filled in.

    Univariate data takes --gamma and --delta (0.5 each by default),
    multivariate data --nu (b + 1) and --omega (1). A scalar or grid flag of
    the other family is an error, not silently ignored; grids are named first.
    """
    if b == 1:
        defaults, other, kind = {"gamma": 0.5, "delta": 0.5}, ("nu", "omega"), "univariate"
    else:
        defaults, other, kind = {"nu": b + 1, "omega": 1.0}, ("gamma", "delta"), "multivariate"
    stray = [f"{n}-grid" for n in _GRID_FIELDS if n in other and getattr(args, f"{n}_grid", None)]
    stray += [n for n in other if getattr(args, n) is not None]
    if stray:
        raise ValueError(f"--{stray[0]} does not apply to {kind} data")
    given = {name: getattr(args, name) for name in defaults}
    return {name: defaults[name] if v is None else v for name, v in given.items()}


def _build_params(args, b: int, default_mu: np.ndarray):
    """The prior of b-column data; default_mu stands in for an omitted --mu."""
    family = _family_values(args, b)
    mu = _parse_mu(args.mu, b, default_mu)
    if b == 1:
        return UvHyperParams(alpha=args.alpha, tau=args.tau, mu=float(mu[0]), **family)
    return MvHyperParams(alpha=args.alpha, tau=args.tau, mu=mu, **family)


def _search_config(args):
    return SearchConfig(seed=args.seed,
                        **{name: getattr(args, flag) for flag, name in _SEARCH_FLAGS.items()})


def _check_out_dirs(*paths):
    """Fail (exit 2) on an output whose directory does not exist, before any work."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no such directory: {Path(path).parent}")


def _load_data(args):
    data = read_csv(args.data)
    if args.standardize:
        data, _, _ = standardize(data)
    return data


def cmd_cluster(args) -> int:
    _check_out_dirs(args.out, args.plot_data)
    data = _load_data(args)
    params = _build_params(args, data.b, data.values.mean(axis=0))
    config = _search_config(args)
    order = neighbor_order(data, args.metric) if args.algorithm == "combined" else None
    t0 = time.perf_counter()
    solution = multi_start(data, params, config, order, algorithm=args.algorithm)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if args.out:
        metadata = {
            "seed": args.seed, "restarts": args.restarts, "runtime_ms": runtime_ms,
            "algorithm": args.algorithm, "metric": args.metric,
            "standardize": args.standardize, "beta1": args.beta1, "beta2": args.beta2,
            "k_max": args.kmax,
        }
        write_result(solution, params, metadata, args.out)
    if args.plot_data:
        stacked = np.column_stack([data.values, solution.allocation.labels])
        write_csv(stacked, args.plot_data)
    print(f"K = {solution.K}")
    print(f"ICL_ex = {solution.icl:.17g}")
    return 0


def cmd_generate(args) -> int:
    _check_out_dirs(args.out_data, args.out_labels)
    if args.n < 1 or args.k < 1 or args.b < 1:
        raise ValueError("--n, --k and --b must all be at least 1")
    SearchConfig(seed=args.seed)  # the search's seed check, before any sampling
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    params = _build_params(args, args.b, np.zeros(args.b))
    sample = sample_dataset(args.n, args.k, params, rng)
    write_csv(sample.data, args.out_data)
    labels = sample.allocation.labels.reshape(-1, 1).astype(float)
    write_csv(labels, args.out_labels)
    print(f"n = {sample.data.n} b = {sample.data.b} K = {sample.allocation.K}")
    return 0


def _grid_rows(args):
    varied = [name for name in _GRID_FIELDS if getattr(args, f"{name}_grid")]
    if not varied:
        raise ValueError("no grid flags given; nothing to sweep")
    grids = (getattr(args, f"{name}_grid") for name in varied)
    return varied, [dict(zip(varied, combo)) for combo in itertools.product(*grids)]


def cmd_sweep(args) -> int:
    _check_out_dirs(args.out)
    data = _load_data(args)
    varied, rows = _grid_rows(args)
    # a bad flag that no grid overrides fails here, before the order is built
    stand_ins = argparse.Namespace(**{**vars(args), **{name: _STAND_INS[name] for name in varied}})
    _build_params(stand_ins, data.b, data.values.mean(axis=0))
    _search_config(stand_ins)
    order = neighbor_order(data, args.metric) if args.algorithm == "combined" else None
    master = np.random.SeedSequence(args.seed)
    # each row's table cells, and its CSV record in shortest round-trip floats:
    # exact on re-read, unlike the rounded table
    table, records = [], []
    for idx, row in enumerate(rows):
        seed = int(np.random.SeedSequence(entropy=master.entropy, spawn_key=(idx,)).generate_state(1)[0])
        point = argparse.Namespace(**{**vars(args), **row, "seed": seed})
        try:
            params = _build_params(point, data.b, data.values.mean(axis=0))
            config = _search_config(point)
            sol = multi_start(data, params, config, order, algorithm=args.algorithm)
        except (ValueError, NumericalError) as exc:
            # a bad grid point is reported in its row, the sweep goes on
            cells, fields = ["-", f"failed: {exc}"], ["", "", str(exc)]
        else:
            cells, fields = [str(sol.K), f"{sol.icl:.2f}"], [str(sol.K), repr(sol.icl), ""]
        table.append([f"{row[v]:g}" for v in varied] + cells)
        records.append([repr(row[v]) for v in varied] + fields)

    headers = list(varied) + ["k", "ICL_ex"]
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for cells in table:
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))

    if args.out:
        # the csv module quotes an error text that holds a comma or a quote
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [list(varied) + ["k", "icl_ex", "error"]] + records)
    return 0


def cmd_eval(args) -> int:
    data = _load_data(args)
    raw = read_labels_csv(args.labels)
    if raw.size != data.n:
        raise ValueError(f"labels have length {raw.size}, data has n = {data.n}")
    alloc = relabel_compact(raw)
    params = _build_params(args, data.b, data.values.mean(axis=0))
    value = icl_exact(data, alloc, params)
    print(f"data_term = {value.data_term:.17g}")
    print(f"prior_term = {value.prior_term:.17g}")
    print(f"total = {value.total:.17g}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
