"""Data ingestion, standardisation, neighbour orders and result documents."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .model import DataSet, MvHyperParams, UvHyperParams, as_integers


def read_csv(path) -> DataSet:
    """Parse a numeric CSV into a DataSet, rows as observations.

    Accepts headerless files or a single header row, UTF-8 with or without a
    byte-order mark, comma delimiter, '.' decimal separator. Reports the
    offending line and column on bad input.
    """
    # utf-8-sig's decoding, without loading its codec module into a command
    text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError(f"empty CSV file: {path}")

    def parse_row(line):
        cells = line.split(",")
        out = []
        for col, cell in enumerate(cells, start=1):
            try:
                out.append(float(cell))
            except ValueError:
                return None, col, cell
        return out, None, None

    first_row, _, _ = parse_row(lines[0][1])
    start = 0 if first_row is not None else 1  # non-numeric first row is a header
    if start == 1 and len(lines) == 1:
        raise ValueError(f"CSV file has a header but no data rows: {path}")

    rows = []
    width = None
    for no, line in lines[start:]:
        row, col, cell = parse_row(line)
        if row is None:
            raise ValueError(f"non-numeric value {cell!r} at line {no}, column {col}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"ragged row at line {no}: expected {width} fields, got {len(row)}")
        rows.append(row)
    return DataSet(np.asarray(rows))


def write_csv(data, path) -> None:
    """Write a DataSet or 2-d array as CSV with 17 significant digit floats."""
    values = data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data))
    out = [",".join(f"{v:.17g}" for v in row) for row in values]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_labels_csv(path) -> np.ndarray:
    """Read a single-column CSV of integer labels."""
    data = read_csv(path)
    if data.b != 1:
        raise ValueError(f"label file must have one column, got {data.b}")
    return as_integers(data.values[:, 0], "labels")


def standardize(data: DataSet):
    """Centre and scale each column to mean 0 and sample sd 1 (n - 1 denominator).

    Returns the transformed data together with the per-column means and sds.
    Each column is first divided by the power of two at its largest
    magnitude, so its squares neither overflow nor underflow; that scaling is
    exact, so ordinary data gets the bits of the unscaled expression. A
    constant column is an error, also where rounding leaves its sd above 0.
    """
    _, exps = np.frexp(np.abs(data.values).max(axis=0))
    values = np.ldexp(data.values, -exps)
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1) if data.n > 1 else np.zeros(data.b)
    bad = np.flatnonzero(values.max(axis=0) == values.min(axis=0))
    if bad.size:
        raise ValueError(f"column {int(bad[0]) + 1} has zero variance and cannot be standardized")
    return DataSet((values - means) / sds), np.ldexp(means, exps), np.ldexp(sds, exps)


def _distances(rows: np.ndarray, x: np.ndarray, metric: str, total=None, diff=None) -> np.ndarray:
    """Distances from each of `rows` to every row of x, shape (len(rows), n).

    The squared (or absolute) differences are added one column at a time, in
    column order, so only two (len(rows), n) arrays are held: total, which is
    returned, and diff, its scratch. Either can be given as a buffer of that
    shape. For b <= 7 that is the order of numpy's sum over a last axis of b
    terms, so the bits are those of np.sqrt(np.sum(diff * diff, axis=-1));
    from b = 8 numpy sums pairwise and the two can differ in the last place.
    """
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(f"metric must be 'euclidean' or 'manhattan', got {metric!r}")
    square = metric == "euclidean"
    total = np.empty((len(rows), len(x))) if total is None else total
    diff = np.empty_like(total) if diff is None else diff
    for c in range(x.shape[1]):
        # the first column's terms start the sum, as 0 + t = t
        term = np.subtract.outer(rows[:, c], x[:, c], out=diff if c else total)
        np.multiply(term, term, out=term) if square else np.abs(term, out=term)
        if c:
            total += term
    return np.sqrt(total, out=total) if square else total


def distance_matrix(data: DataSet, metric: str = "euclidean") -> np.ndarray:
    """Dense pairwise distances; symmetric with an exactly zero diagonal."""
    d = np.triu(_distances(data.values, data.values, metric), 1)
    return d + d.T


def neighbor_order(data: DataSet, metric: str = "euclidean") -> np.ndarray:
    """Row i lists i first, then every other observation by (distance to i, index).

    The order is n x n, in the narrowest unsigned type that holds n - 1: n^2
    bytes up to n = 256, 2 n^2 up to n = 65,536, then 4 n^2. Rows are built
    64 at a time in two 64 x n float buffers, allocated once: _distances
    fills one, and the other takes the rows' packed keys. The key of column j
    is the distance's bits, which sort as a non-negative double does, with
    their low w = (n - 1).bit_length() bits cleared, plus 2^w, plus j; row
    i's own key is just i, so i comes first. One integer sort per row orders
    its keys by (distance, index), and the index is masked out into the
    order. Then the keys are shifted right by w, leaving the distance bits
    plus one, and 0 for i. A row in which two adjacent shifted keys are equal
    (a tie, infinite distances, or distances that differ only in the cleared
    bits) takes its exact distances' bits, still in the distance buffer, in
    key order, and all such rows of a block are re-sorted by one stable
    argsort of those bits. Key order puts equal distances by index and i, at
    distance 0, ahead of its duplicates, so the stable sort keeps both.
    """
    n, x = data.n, data.values
    order = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    w = (n - 1).bit_length()
    low = (1 << w) - 1  # the low key bits, which hold an index
    index = np.arange(n, dtype=np.uint64)
    total, spare = np.empty((2, min(n, 64), n))
    for lo in range(0, n, 64):  # a slice [:n - lo] is the block's min(64, n - lo) rows
        d = _distances(x[lo:lo + 64], x, metric, total[:n - lo], spare[:n - lo]).view(np.uint64)
        keys = np.bitwise_or(d, low, out=spare[:n - lo].view(np.uint64))
        keys += index + 1  # (d | low) + 1 + j = (d with the low bits cleared) + 2^w + j
        np.fill_diagonal(keys[:, lo:], index[lo:lo + 64])
        keys.sort(axis=1)
        np.bitwise_and(keys, low, out=order[lo:lo + 64], casting="unsafe")
        keys >>= w  # the distance bits plus one, and 0 for the row's own key
        tied = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
        rows = order[lo + tied]
        exact = d[tied[:, None], rows]
        order[lo + tied] = np.take_along_axis(rows, exact.argsort(axis=1, kind="stable"), axis=1)
    return order


def hyperparams_to_dict(params) -> dict:
    """The prior's dataclass fields by name, mu as plain Python numbers, and its family."""
    for cls, family in ((MvHyperParams, "multivariate"), (UvHyperParams, "univariate")):
        if isinstance(params, cls):
            doc = {f.name: getattr(params, f.name) for f in dataclasses.fields(cls)}
            return {**doc, "family": family, "mu": np.asarray(params.mu).tolist()}
    raise TypeError(f"unsupported hyperparameter type {type(params).__name__}")


def write_result(solution, params, metadata: dict, path) -> None:
    """Serialise a search result as a canonical JSON document.

    Floats are written with shortest round-trip precision (at most 17
    significant digits), so parsing the document back reproduces the exact
    values. Keys are sorted and the layout is fixed, which makes repeated
    runs with the same seed byte-comparable apart from the wall-clock field.
    """
    doc = {
        "hyperparams": hyperparams_to_dict(params),
        "seed": metadata.get("seed"),
        "restarts": metadata.get("restarts"),
        "sweeps": solution.sweeps_used,
        "K": solution.K,
        "icl_ex": solution.icl,
        "labels": [int(v) for v in solution.allocation.labels],
        "restart_best": list(solution.restart_bests) if solution.restart_bests else [solution.icl],
        "runtime_ms": metadata.get("runtime_ms"),
        "run": {
            k: metadata[k]
            for k in ("algorithm", "metric", "standardize", "beta1", "beta2", "k_max")
            if k in metadata
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
