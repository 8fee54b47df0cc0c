"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
Every tolerance is pinned here; timing gates use wall time."""
import itertools
import json
import math
import time

import numpy as np

from cpl_kit import (
    BudgetParams,
    ConditionalDistribution,
    EstimationConfig,
    JointDistribution,
    MechanismSpec,
    cpl_bound,
    cpl_exact,
    calibrate,
    conditional_from_joint,
    empirical_joint,
    estimate_cpl,
    metrics,
    nmse_cpl,
    transition_matrix,
)
from cpl_kit.benchmarks import analyzer_benchmark, ordered_pairs, pairwise_conditionals
from cpl_kit.calibration import _as_conditionals
from cpl_kit.cli import main
from cpl_kit.fixtures import MAXLEAK_JOINT, chain_five, latent_five, maxleak_pair, mixed_five, weak_ten
from cpl_kit.rng import derive_rng
from cpl_kit.statistical import count_table, sup_ratio_leakage
from conftest import (
    cpl_bound_bruteforce, cpl_limit, decode_rows, is_max_attainable, random_conditional, worst_total,
)

REFERENCE_JOINT = JointDistribution(tuple("abcd"), tuple("wxyz"), MAXLEAK_JOINT)
# theoretical and experimental leakage columns of the reference pair,
# per budget: (toward target, toward neighbor)
THEORY = {0.5: (0.5, 0.2810), 1.0: (1.0, 0.6203), 2.0: (2.0, 1.4340)}
EXPERIMENT = {0.5: (0.5007, 0.2833), 1.0: (0.9985, 0.6222), 2.0: (2.0020, 1.4369)}


def report(n, ok, text):
    print(f"\nACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n}: {text}"


def test_01_reference_table_theoretical_reproduction():
    t0 = time.perf_counter()
    fwd = conditional_from_joint(REFERENCE_JOINT, given="rows")
    rev = conditional_from_joint(REFERENCE_JOINT, given="cols")
    ok = True
    for eps, (want_fwd, want_rev) in THEORY.items():
        got_fwd = cpl_bound(fwd, BudgetParams(eps, 0.0)).leakage
        got_rev = cpl_bound(rev, BudgetParams(eps, 0.0)).leakage
        ok &= abs(got_fwd - want_fwd) <= 1e-3 and abs(got_rev - want_rev) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"bound reproduces the reference leakage table to 1e-3 in {elapsed:.3f}s")


def test_02_reference_table_experimental_reproduction():
    t0 = time.perf_counter()
    d = maxleak_pair(n=100_000, seed=0)
    ok = True
    details = []
    for eps, (want_fwd, want_rev) in EXPERIMENT.items():
        cfg = EstimationConfig(expansion=5, surrogates=200, seed=42)
        specs = [MechanismSpec("grr", eps, 4), MechanismSpec("grr", eps, 4)]
        got_fwd = estimate_cpl(d, specs, 0, [1], cfg)
        got_rev = estimate_cpl(d, specs, 1, [0], cfg)
        ok &= abs(got_fwd.leakage - want_fwd) <= 0.05
        ok &= abs(got_rev.leakage - want_rev) <= 0.05
        ok &= got_fwd.p_value < 0.05 and got_rev.p_value < 0.05
        details.append(f"eps={eps}: {got_fwd.leakage:.4f}/{got_rev.leakage:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(2, ok, f"statistical estimates match the experimental column +-0.05, p<0.05 "
                  f"({'; '.join(details)}) in {elapsed:.1f}s")


def test_03_metric_pinning_and_normalization_selection():
    rep = metrics(REFERENCE_JOINT)
    ok = abs(rep.nmi - 0.164) <= 1e-3 and abs(rep.pcc - 0.357) <= 1e-3
    variants = [rep.mi / math.sqrt(rep.h_a * rep.h_b),
                rep.mi / min(rep.h_a, rep.h_b),
                rep.mi / max(rep.h_a, rep.h_b),
                rep.mi / ((rep.h_a + rep.h_b) / 2)]
    ok &= all(abs(v - rep.nmi) > 0.05 for v in variants)
    report(3, ok, f"nmi={rep.nmi:.4f}, pcc={rep.pcc:.4f}; rejected normalizations "
                  f"differ by >0.05 ({', '.join(f'{v:.3f}' for v in variants)})")


def test_04_greedy_equals_bruteforce_oracle():
    t0 = time.perf_counter()
    rng = derive_rng(404, 0)
    checked = 0
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(2, 13))
        cond = random_conditional(rng, m=2, t=t)
        for eps in (0.1, 1.0, 5.0):
            g = cpl_bound(cond, BudgetParams(eps)).leakage
            b = cpl_bound_bruteforce(cond, BudgetParams(eps)).leakage
            worst = max(worst, abs(g - b))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and checked >= 200 and elapsed < 30.0
    report(4, ok, f"{checked} randomized instances, max |greedy - brute| = {worst:.2e} "
                  f"in {elapsed:.1f}s")


def test_05_statistical_vs_exact_error_at_desk_scale():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, gen in (("chain", chain_five), ("latent", latent_five)):
        d = gen(n=20_000, seed=0)
        conds = pairwise_conditionals(d)
        pairs = ordered_pairs(d.n_attributes)
        for kind, eps in itertools.product(("grr", "exp"), (1.0, 3.0)):
            cfg = EstimationConfig(expansion=50, surrogates=1, seed=17)
            specs = [MechanismSpec(kind, eps, d.alphabet(j).size)
                     for j in range(d.n_attributes)]
            orig, pert = decode_rows(d, specs, cfg)
            assert orig.size >= 10 ** 6
            refs, ests = [], []
            for i, j in pairs:
                refs.append(cpl_exact(conds[(i, j)], transition_matrix(specs[j])).leakage)
                leak, _ = sup_ratio_leakage(count_table(orig[:, i], pert[:, j],
                                                        d.alphabet(i).size, d.alphabet(j).size))
                ests.append(leak)
            err = nmse_cpl(ests, refs)
            ok &= err < 1e-2
            details.append(f"{name}/{kind}/eps={eps:g}: {err:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(5, ok, f"NMSE(statistical, exact) < 1e-2 ({'; '.join(details)}) in {elapsed:.1f}s")


def test_06_limit_and_extremes_property_suite():
    rng = derive_rng(406, 0)
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    ok = True
    attainable_seen = {True: 0, False: 0}
    for _ in range(100):
        cond = random_conditional(rng)
        leaks = [cpl_bound(cond, BudgetParams(e)).leakage for e in grid]
        ok &= all(leaks[i + 1] >= leaks[i] - 1e-12 for i in range(len(grid) - 1))
        ok &= all(l <= e + 1e-9 for l, e in zip(leaks, grid))
        ok &= leaks[0] == 0.0
        limit = cpl_limit(cond)
        if math.isfinite(limit):
            ok &= abs(leaks[-1] - limit) < 1e-3
        attainable, _ = is_max_attainable(cond)
        ok &= (cpl_bound(cond, BudgetParams(1.0)).leakage == 1.0) == attainable
        attainable_seen[attainable] += 1
    # independent attributes: identical rows, no leakage at any budget
    flat = ConditionalDistribution(("x", "xp"), ("a", "b", "c"),
                                   np.tile([[0.2, 0.5, 0.3]], (2, 1)))
    ok &= cpl_bound(flat, BudgetParams(3.0)).leakage == 0.0
    ok &= min(attainable_seen.values()) > 0
    report(6, ok, "monotone in budget, capped by budget, saturates at the limit, "
                  "attains the budget iff supports are disjoint, zero when independent")


def test_07_composition_tightness_on_reference_fixture():
    d = maxleak_pair(n=100_000, seed=0)
    cond_emp = conditional_from_joint(empirical_joint(d, 0, 1))
    ok = True
    details = []
    for eps in (0.5, 1.0, 2.0):
        cfg = EstimationConfig(expansion=10, surrogates=1, seed=7)
        specs = [MechanismSpec("grr", eps, 4), MechanismSpec("grr", eps, 4)]
        stat = estimate_cpl(d, specs, 0, [0, 1], cfg).leakage
        bound = eps + cpl_bound(cond_emp, BudgetParams(eps)).leakage
        ok &= stat <= bound + 0.05
        if eps == 1.0:
            ok &= bound - stat < 0.3
        details.append(f"eps={eps:g}: stat={stat:.3f} bound={bound:.3f}")
    report(7, ok, f"statistical total leakage within the composition bound "
                  f"({'; '.join(details)})")


def test_08_benchmark_region_signatures():
    d = mixed_five(n=40_000, seed=0)
    points, = analyzer_benchmark(d, [1.0], thresholds=(0.2, 0.4), reference="bound")
    ok = points["spl-anl"].region == "R2"
    ok &= points["grf-0.2"].region in ("R2", "R3")
    ok &= points["grf-0.4"].region in ("R2", "R3")
    ok &= points["grr-anl"].region in ("P1", "R1")
    ok &= points["grr-anl"].distance < 0.05
    summary = ", ".join(f"{k}={p.region}" for k, p in sorted(points.items()))
    report(8, ok, f"{summary}; grr-anl distance {points['grr-anl'].distance:.3f}")


def test_09_calibration_gain_on_weak_data():
    d = weak_ten(n=30_000, seed=0)
    n = d.n_attributes
    joints = {(i, j): empirical_joint(d, i, j) for i, j in ordered_pairs(n)}
    _, conds = _as_conditionals(joints)
    limits = [cpl_limit(c) for c in conds.values()]
    ok = max(limits) < 0.1
    eps_bar = float(n)  # 1 nat per attribute
    res = calibrate(joints, eps_bar, step=0.01)
    ok &= res.epsilon_star >= 3 * (eps_bar / n)
    lo, hi = eps_bar / n, eps_bar
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        if worst_total(conds, n, mid) <= eps_bar + 1e-9:
            lo = mid
        else:
            hi = mid
    ok &= abs(res.epsilon_star - lo) <= 0.01 + 1e-6
    report(9, ok, f"all saturation limits < 0.1; calibrated budget {res.epsilon_star:.2f} "
                  f">= 3x equal split; bisection agrees within 0.01 (got {lo:.4f})")


def test_10_cli_determinism(tmp_path, capsys):
    fx = tmp_path / "fx"
    code = main(["fixtures", "generate", "--out-dir", str(fx), "--seed", "3",
                 "--samples", "maxleak_pair=20000,independent_pair=10000,"
                 "mixed_five=10000,noisy_copy=8000,weak_ten=4000,"
                 "perfect_copy=4000,chain_five=4000,latent_five=4000"])
    assert code == 0
    capsys.readouterr()
    cond = conditional_from_joint(REFERENCE_JOINT)
    (tmp_path / "cond.json").write_text(json.dumps(cond.to_json()), encoding="utf-8")
    subcommands = [
        ["analyze", "matrix", "--data", f"{fx}/maxleak_pair.csv", "--epsilon", "1"],
        ["analyze", "exact", "--cond", f"{tmp_path}/cond.json",
         "--mechanism", "grr", "--epsilon", "1"],
        ["analyze", "bound", "--cond", f"{tmp_path}/cond.json", "--epsilon", "1"],
        ["estimate", "--data", f"{fx}/maxleak_pair.csv", "--mechanism", "grr",
         "--epsilon", "1", "--target", "0", "--neighbors", "1", "--r", "1",
         "--surrogates", "49", "--seed", "11"],
        ["benchmark", "analyzers", "--data", f"{fx}/mixed_five.csv", "--epsilons", "1"],
        ["benchmark", "utility", "--data", f"{fx}/noisy_copy.csv",
         "--mechanisms", "grr,oue,ss", "--epsilons", "1", "--seed", "2"],
        ["calibrate", "--data", f"{fx}/independent_pair.csv", "--budget", "2",
         "--step", "0.05"],
    ]
    ok = True
    for argv in subcommands:
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            obj = json.loads(capsys.readouterr().out)
            obj["manifest"].pop("wall_time_s")
            outs.append(json.dumps(obj, sort_keys=True))
        ok &= outs[0] == outs[1]
    # fixture generation itself is reproducible file-for-file
    fx2 = tmp_path / "fx2"
    assert main(["fixtures", "generate", "--out-dir", str(fx2), "--seed", "3",
                 "--samples", "maxleak_pair=20000,independent_pair=10000,"
                 "mixed_five=10000,noisy_copy=8000,weak_ten=4000,"
                 "perfect_copy=4000,chain_five=4000,latent_five=4000"]) == 0
    capsys.readouterr()
    ok &= (fx / "maxleak_pair.csv").read_bytes() == (fx2 / "maxleak_pair.csv").read_bytes()
    report(10, ok, "every subcommand rerun is byte-identical apart from wall time")
