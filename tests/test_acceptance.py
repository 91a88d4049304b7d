"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavier experiments (grids over generated data)
keep their random seeds frozen so every run is reproducible.
"""

import itertools
import json
import math
import re
import time

import numpy as np
from iclust import (
    Allocation,
    DataSet,
    MvHyperParams,
    SearchConfig,
    UvHyperParams,
    icl_exact,
    make_state,
    multi_start,
    relabel_compact,
    sample_dataset,
)
from iclust.cli import main
from iclust.icl import allocation_log_prior
from iclust.io import neighbor_order
from iclust.optimizer import greedy_combined_icl

from oracles import (
    brute_force_max_icl,
    enumerate_label_vectors,
    group_evidence,
    icl_delta,
    interval_split_max_icl,
    mv_evidence_chain_rule,
    mvt_logpdf,
    uv_evidence_quadrature,
)


def report(criterion, ok, detail=""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")


GALAXY_PARAMS = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)


def test_criterion_1_galaxy_reproduction(galaxy_standardized):
    """Standardised 82-point galaxy run: K = 3, ICL >= -102.87, under 10 s."""
    config = SearchConfig(max_sweeps=10, restarts=10, k_max=20, seed=0)
    t0 = time.perf_counter()
    sol = multi_start(galaxy_standardized, GALAXY_PARAMS, config)
    elapsed = time.perf_counter() - t0
    ok = sol.K == 3 and sol.icl >= -102.87 and elapsed < 10.0
    report("1 galaxy", ok, f"(K={sol.K}, ICL_ex={sol.icl:.4f}, {elapsed:.2f}s)")
    assert sol.K == 3
    assert sol.icl >= -102.87
    assert elapsed < 10.0


def _two_tails_labels(data):
    """The published K=2 galaxy allocation: sorted positions 9..76 against the 14 tail points."""
    order = np.argsort(data.values[:, 0], kind="stable")
    labels = np.full(data.n, 2, dtype=np.int64)
    labels[order[9:77]] = 1
    return labels


def test_criterion_1_galaxy_grid_pattern(galaxy_standardized):
    """18-row hyperparameter grid: K in {2,3,4}, alpha=10, delta=1 rows judged by the exact ICL.

    The published table gives K=2 on the three alpha=10, delta=1 rows. That
    K=2 value is exactly reproduced by the two-tails-versus-middle split
    (sorted positions 9..76 in one group, the 14 tail points in the other),
    and on two of those rows the single group scores strictly higher:

        (tau, delta, alpha)   K=1        two-tails K=2
        (0.1,   1, 10)        -121.1531  -120.2401
        (0.01,  1, 10)        -122.3039  -122.5311
        (0.001, 1, 10)        -123.4551  -124.8326

    The two-tails split is the best K=2 interval split on all three rows, and
    the best contiguous K=3 split scores lower still (-122.21, -124.02,
    -127.28). So the published K=2 at tau <= 0.01 is a local optimum of the
    search that produced it, not the objective's maximiser; whether the
    paper's table used exactly this objective is not settled beyond that
    exact reproduction. The three alpha=10, delta=1 rows are therefore judged
    against the objective: the search's allocation is rescored with
    `icl_exact`, its K must equal the K of the best K=1 or two-group interval
    split, and its value must reach that split's ICL. On tau <= 0.01 it must
    also score strictly above the published two-tails allocation, which the
    test builds explicitly. The other 15 rows keep K in {2,3,4}.
    """
    data = galaxy_standardized
    rows = []
    judged = {}
    for i, (tau, dlt, alpha) in enumerate(
        itertools.product((0.1, 0.01, 0.001), (1.0, 0.1, 0.01), (0.5, 10.0))
    ):
        params = UvHyperParams(alpha=alpha, tau=tau, mu=0.0, gamma=1.0, delta=dlt)
        config = SearchConfig(max_sweeps=10, restarts=10, k_max=20, seed=1000 + i)
        sol = multi_start(data, params, config)
        rows.append((tau, dlt, alpha, sol.K, sol.icl))
        if (dlt, alpha) == (1.0, 10.0):
            best, best_k, _ = interval_split_max_icl(data, params)
            rescored = icl_exact(data, sol.allocation, params).total
            two_tails = icl_exact(data, _two_tails_labels(data), params).total
            judged[tau] = (sol.K, rescored, best_k, best, two_tails)
    best_row = max(rows, key=lambda r: r[4])
    dominant_ok = best_row[:3] == (0.01, 0.1, 0.5) and best_row[3] == 3
    in_range = all(k in (2, 3, 4) for _, d, a, k, _ in rows if (d, a) != (1.0, 10.0))
    objective_ok = all(k == best_k and rescored >= best - 1e-9
                       for k, rescored, best_k, best, _ in judged.values())
    beats_published = all(judged[t][1] > judged[t][4] for t in (0.01, 0.001))
    detail = "; ".join(f"tau={t:g},delta={d:g},alpha={a:g}->K={k} ({v:.2f})"
                       for t, d, a, k, v in rows)
    objective_detail = "; ".join(
        f"tau={t:g}: search K={k} ({r:.4f}), oracle K={bk} ({b:.4f}), two-tails ({tt:.4f})"
        for t, (k, r, bk, b, tt) in judged.items())
    report("1 grid pattern", dominant_ok and in_range and objective_ok and beats_published,
           f"({detail} | alpha=10, delta=1 against the exact ICL: {objective_detail})")
    assert dominant_ok, f"dominant row is {best_row}, expected tau=0.01, delta=0.1, alpha=0.5 with K=3"
    assert in_range, f"K outside {{2,3,4}} in rows: {detail}"
    assert objective_ok, f"search misses the best interval split: {objective_detail}"
    assert beats_published, f"search does not beat the published two-tails split: {objective_detail}"


def test_interval_split_oracle_against_brute_force():
    """The interval-split oracle is bounded by exhaustive search and attains it
    whenever the exhaustive optimum is itself an interval split."""
    rng = np.random.default_rng(2024)
    attained = []
    for trial in range(16):
        n = int(rng.integers(4, 9))
        separation = (0.0, 6.0)[trial % 2]
        xs = rng.normal(size=n) + separation * (np.arange(n) < n // 2)
        data = DataSet(xs[:, None])
        params = UvHyperParams(alpha=(0.5, 10.0)[trial // 2 % 2], tau=0.01, mu=float(xs.mean()),
                               gamma=1.0, delta=(0.1, 1.0)[trial // 4 % 2])
        best, k, labels = interval_split_max_icl(data, params)
        brute, brute_labels = brute_force_max_icl(data, params, k_max=2)
        assert best <= brute + 1e-9
        assert icl_exact(data, labels, params).total == best
        sorted_groups = brute_labels[np.argsort(xs, kind="stable")]
        if np.count_nonzero(np.diff(sorted_groups)) <= 2:
            assert abs(best - brute) < 1e-9, (trial, best, brute)
            assert k == brute_labels.max()
            attained.append(k)
    report("1 interval-split oracle", True, f"(K of attained optima: {attained})")
    assert 1 in attained and 2 in attained, attained


def test_criterion_2_prior_normalization():
    """Exhaustive normalization of the allocation prior, n <= 6, K <= 3."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for K in range(1, 4):
            for alpha in (0.5, 4.0, 10.0):
                total = 0.0
                for z in enumerate_label_vectors(n, K):
                    counts = [z.count(g) for g in range(1, K + 1)]
                    nonzero = [c for c in counts if c > 0]
                    kp = len(nonzero)
                    val = allocation_log_prior(nonzero, alpha, n)
                    # unused labels contribute lgamma(alpha) - lgamma(alpha) = 0;
                    # the leading terms still use the full K
                    val += (
                        math.lgamma(K * alpha) - math.lgamma(K * alpha + n)
                        - math.lgamma(kp * alpha) + math.lgamma(kp * alpha + n)
                    )
                    total += math.exp(val)
                worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report("2 prior normalization", ok, f"(worst |sum-1|={worst:.2e}, {elapsed:.2f}s)")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_3_evidence_oracles():
    """Student-t, quadrature and chain-rule oracles for the collapsed evidence."""
    rng = np.random.default_rng(314)
    # (a) single observation versus the closed-form Student-t predictive
    worst_a = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 4))
        params = MvHyperParams(
            alpha=float(rng.uniform(0.5, 8.0)),
            tau=float(rng.uniform(0.05, 4.0)),
            mu=rng.normal(size=b),
            nu=float(b - 1 + rng.uniform(0.5, 6.0)),
            omega=float(rng.uniform(0.2, 5.0)),
        )
        x = rng.normal(size=b)
        ev = group_evidence(x[None, :], params)
        df = params.nu - b + 1
        scale = params.scale_matrix() * (params.tau + 1) / (params.tau * df)
        worst_a = max(worst_a, abs(ev - mvt_logpdf(x, params.mu, scale, df)))
    # (b) univariate evidence versus 2-d adaptive quadrature
    worst_b = 0.0
    for _ in range(20):
        params = UvHyperParams(
            alpha=1.0,
            tau=float(rng.uniform(0.5, 2.0)),
            mu=float(rng.uniform(-0.5, 0.5)),
            gamma=float(rng.uniform(0.8, 2.5)),
            delta=float(rng.uniform(0.5, 2.0)),
        )
        xs = rng.normal(size=int(rng.integers(1, 5)))
        ev = group_evidence(xs[:, None], params)
        worst_b = max(worst_b, abs(ev - uv_evidence_quadrature(params, xs)))
    # (c) multivariate evidence versus the sequential-predictive chain rule
    worst_c = 0.0
    for _ in range(30):
        b = int(rng.integers(1, 4))
        m = int(rng.integers(1, 11))
        params = MvHyperParams(
            alpha=2.0,
            tau=float(rng.uniform(0.05, 3.0)),
            mu=rng.normal(size=b),
            nu=float(b + rng.uniform(0.2, 5.0)),
            omega=float(rng.uniform(0.3, 3.0)),
        )
        rows = rng.normal(size=(m, b))
        ev = group_evidence(rows, params)
        worst_c = max(worst_c, abs(ev - mv_evidence_chain_rule(params, rows)))
    ok = worst_a < 1e-10 and worst_b < 1e-6 and worst_c < 1e-9
    report("3 evidence oracles", ok,
           f"(student-t {worst_a:.2e}, quadrature {worst_b:.2e}, chain rule {worst_c:.2e})")
    assert worst_a < 1e-10
    assert worst_b < 1e-6
    assert worst_c < 1e-9


def test_criterion_4_delta_exactness():
    """1000+ randomised moves on n=200: delta equals the full recompute."""
    rng = np.random.default_rng(99)
    data = DataSet(rng.standard_normal((200, 2)) * 2.0)
    params = MvHyperParams(alpha=4.0, tau=0.1, mu=np.zeros(2), nu=3.0, omega=1.0)
    state = make_state(data, relabel_compact(rng.integers(1, 7, size=200)), params)
    before = icl_exact(data, state.labels, params).total
    worst = 0.0
    kinds = {"single-existing": 0, "single-new": 0, "block-existing": 0, "block-new": 0}
    checked = 0
    while checked < 1000:
        g = int(rng.integers(1, state.k + 1))
        members = np.flatnonzero(state.labels == g)
        m = 1 if rng.random() < 0.5 else int(rng.integers(2, members.size + 1))
        m = min(m, members.size)
        block = rng.choice(members, size=m, replace=False)
        target = int(rng.integers(1, state.k + 2))
        if target == g:
            continue
        d = icl_delta(state, block, target)
        labels = state.labels.copy()
        labels[block] = target
        after = icl_exact(data, relabel_compact(labels), params).total
        worst = max(worst, abs(d - (after - before)))
        kind = ("single" if m == 1 else "block") + ("-new" if target > state.k else "-existing")
        kinds[kind] += 1
        checked += 1
    ok = worst < 1e-8 and all(v > 0 for v in kinds.values())
    report("4 delta exactness", ok, f"(1000 moves, worst |err|={worst:.2e}, mix={kinds})")
    assert worst < 1e-8
    assert all(v > 0 for v in kinds.values()), kinds


def test_criterion_5_small_instance_optimality():
    """Brute force bounds every search result; majority attainment over 50 runs."""
    gen_params = MvHyperParams(alpha=4.0, tau=0.05, mu=np.zeros(2), nu=3.0, omega=1.0)
    violations = 0
    attained = 0
    for seed in range(50):
        sample = sample_dataset(8, 2, gen_params, np.random.default_rng(seed))
        data = sample.data
        params = MvHyperParams(alpha=4.0, tau=0.05, mu=np.zeros(2), nu=3.0, omega=1.0)
        best, _ = brute_force_max_icl(data, params, k_max=3)
        config = SearchConfig(max_sweeps=15, restarts=20, k_max=3, seed=seed)
        sol = multi_start(data, params, config)
        if sol.icl > best + 1e-8:
            violations += 1
        if abs(sol.icl - best) < 1e-7:
            attained += 1
    rate = attained / 50
    ok = violations == 0 and rate > 0.5
    report("5 small-instance optimality", ok,
           f"(violations={violations}, attainment rate={rate:.0%})")
    assert violations == 0
    assert rate > 0.5, f"attainment rate {rate:.0%}"


def _escape_instance():
    rng = np.random.default_rng(42)
    a = rng.normal(0.0, 1.0, size=(5, 2))
    b = rng.normal(0.0, 1.0, size=(5, 2)) + np.array([2.0, 0.0])
    data = DataSet(np.vstack([a, b]))
    params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                           nu=3.0, omega=1.0)
    z_split = np.array([1, 2, 1, 1, 1, 2, 2, 1, 1, 2])
    return data, params, z_split


def test_criterion_6_block_escape():
    """No single move improves the split allocation, block moves escape it."""
    data, params, z_split = _escape_instance()
    state = make_state(data, z_split, params)
    single_deltas = [
        icl_delta(state, [i], t)
        for i in range(10)
        for t in range(1, state.k + 2)
        if t != state.labels[i]
    ]
    no_single = max(single_deltas) <= 0.0
    block = np.flatnonzero(state.labels == 1)
    block_gain = icl_delta(state, block, 2)
    order = neighbor_order(data)
    config = SearchConfig(max_sweeps=15, restarts=1, seed=0)
    start = state.icl
    wins = 0
    for s in range(100):
        sol = greedy_combined_icl(data, params, Allocation(z_split.copy()), config,
                                  order, np.random.default_rng(s))
        if sol.icl > start + 1e-10:
            wins += 1
    ok = no_single and block_gain > 0 and wins >= 80
    report("6 block escape", ok,
           f"(max single delta={max(single_deltas):.4f}, "
           f"{block.size}-obs block delta={block_gain:.4f}, escapes={wins}/100)")
    assert no_single, f"a single move improves: {max(single_deltas)}"
    assert block_gain > 0
    assert wins >= 80, f"escape rate {wins}/100"


TABLE2_GRID = list(itertools.product((0.1, 1.0, 10.0), (0.1, 0.01), (0.5, 4.0, 10.0)))


def _run_table2_grid(data, seed0):
    order = neighbor_order(data)
    ks = []
    for i, (omega, tau, alpha) in enumerate(TABLE2_GRID):
        params = MvHyperParams(alpha=alpha, tau=tau, mu=data.values.mean(axis=0),
                               nu=3.0, omega=omega)
        config = SearchConfig(max_sweeps=15, restarts=10, k_max=20, seed=seed0 + i)
        ks.append(multi_start(data, params, config, order).K)
    return ks


def test_criterion_7_separation_sensitivity():
    """Separated data recovers K on the full grid; overlap never inflates K."""
    # well separated: small tau spreads the centres far apart
    gen_sep = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(2), nu=3.0, omega=0.5)
    sep = sample_dataset(150, 4, gen_sep, np.random.default_rng(2))
    assert sep.allocation.K == 4
    ks_sep = _run_table2_grid(sep.data, seed0=7100)
    # strongly overlapping: large tau pulls every centre towards mu
    gen_ovl = MvHyperParams(alpha=4.0, tau=0.5, mu=np.zeros(2), nu=3.0, omega=0.5)
    ovl = sample_dataset(150, 4, gen_ovl, np.random.default_rng(1))
    assert ovl.allocation.K == 4
    ks_ovl = _run_table2_grid(ovl.data, seed0=7200)
    sep_ok = all(k == 4 for k in ks_sep)
    ovl_ok = all(k <= 4 for k in ks_ovl)
    report("7 separation sensitivity", sep_ok and ovl_ok,
           f"(separated K: {ks_sep}; overlapping K: {ks_ovl})")
    assert sep_ok, f"separated grid missed the realised K: {ks_sep}"
    assert ovl_ok, f"overlapping grid inflated K: {ks_ovl}"


def test_criterion_8_scale_runtime():
    """n=600 grid of 6 hyperparameter points within the time budget."""
    gen_params = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(2), nu=3.0, omega=0.5)
    sample = sample_dataset(600, 4, gen_params, np.random.default_rng(11))
    assert sample.allocation.K == 4
    data = sample.data
    t0 = time.perf_counter()
    order = neighbor_order(data)
    ks = []
    for i, (tau, omega) in enumerate(itertools.product((0.1, 0.01), (0.1, 1.0, 10.0))):
        params = MvHyperParams(alpha=4.0, tau=tau, mu=data.values.mean(axis=0),
                               nu=3.0, omega=omega)
        # block size parameters tuned for the larger dataset, as in the
        # 600-point experiment this reproduces
        config = SearchConfig(max_sweeps=10, restarts=10, k_max=20,
                              beta1=0.2, beta2=0.04, seed=8000 + i)
        ks.append(multi_start(data, params, config, order).K)
    elapsed = time.perf_counter() - t0
    identical = len(set(ks)) == 1
    ok = identical and elapsed < 60.0
    report("8 scale and runtime", ok, f"(K per grid point: {ks}, {elapsed:.1f}s)")
    assert identical, f"estimated K varies over the grid: {ks}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_9_determinism(tmp_path, galaxy_path, capsys):
    """Repeated commands with one seed produce byte-identical documents.

    The result JSON contains a wall-clock field, which is inherently not
    reproducible; the byte comparison treats that single field as opaque and
    everything else must match exactly.
    """
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"res_{tag}.json"
        code = main([
            "cluster", "--data", str(galaxy_path), "--standardize",
            "--gamma", "1", "--mu", "0", "--tau", "0.01", "--delta", "0.1",
            "--alpha", "0.5", "--restarts", "5", "--sweeps", "6", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    raw = [p.read_text() for p in outs]
    masked = [re.sub(r'"runtime_ms": [0-9eE.+-]+', '"runtime_ms": X', t) for t in raw]
    bytes_ok = masked[0] == masked[1]
    docs = [json.loads(t) for t in raw]
    for d in docs:
        d.pop("runtime_ms")
    fields_ok = docs[0] == docs[1]

    # sweep tables and generated datasets carry no wall clock at all
    sweep_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        code = main([
            "sweep", "--data", str(galaxy_path), "--standardize",
            "--gamma", "1", "--mu", "0", "--tau-grid", "0.1,0.01",
            "--delta-grid", "1,0.1", "--alpha-grid", "0.5",
            "--restarts", "3", "--sweeps", "5", "--seed", "21", "--out", str(out),
        ])
        assert code == 0
        sweep_outs.append(out.read_bytes())
    capsys.readouterr()
    sweep_ok = sweep_outs[0] == sweep_outs[1]
    ok = bytes_ok and fields_ok and sweep_ok
    report("9 determinism", ok,
           f"(result doc identical apart from wall clock: {bytes_ok}, sweep CSV identical: {sweep_ok})")
    assert bytes_ok
    assert fields_ok
    assert sweep_ok
