import math
import sys
import warnings

import numpy as np
import pytest

from cpl_kit import (
    BudgetParams,
    ConditionalDistribution,
    InputError,
    JointDistribution,
    MechanismSpec,
    calibrate,
    conditional_from_joint,
    cpl_bound,
    cpl_exact,
    transition_matrix,
)
from cpl_kit import calibration
from cpl_kit.calibration import _as_conditionals, _LeakageTable, _ordered
from cpl_kit.cpl_bound import _BoundTable
from cpl_kit.mechanisms import KINDS
from cpl_kit.fixtures import mixed_five, weak_ten
from cpl_kit.benchmarks import ordered_pairs, pairwise_conditionals
from cpl_kit.data_model import empirical_joint
from cpl_kit.rng import derive_rng
from conftest import (
    calibrate_by_probe, exact_closed_form, exact_set_leakage, random_conditional, worst_total,
)


def pair_labels(k):
    return tuple(f"s{i}" for i in range(k))


def independent_joints(n, k=2):
    mat = np.full((k, k), 1.0 / (k * k))
    j = JointDistribution(pair_labels(k), pair_labels(k), mat)
    return {(i, l): j for i, l in ordered_pairs(n)}


def copy_joints(n, k=2):
    mat = np.diag(np.full(k, 1.0 / k))
    j = JointDistribution(pair_labels(k), pair_labels(k), mat)
    return {(i, l): j for i, l in ordered_pairs(n)}


def weak_exact_joints(n):
    # max conditional ratio 0.52/0.48, saturation leakage ~0.08 per pair
    mat = np.array([[0.26, 0.24], [0.24, 0.26]])
    j = JointDistribution(pair_labels(2), pair_labels(2), mat)
    return {(i, l): j for i, l in ordered_pairs(n)}


def bisection_oracle(joints, epsilon_bar, tol=1e-6):
    """Bisect the worst total leakage, which is monotone in the shared
    budget, with each total from the public single-pair kernel."""
    n, conds = _as_conditionals(joints)
    lo, hi = epsilon_bar / n, epsilon_bar
    if worst_total(conds, n, hi) <= epsilon_bar + 1e-9:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if worst_total(conds, n, mid) <= epsilon_bar + 1e-9:
            lo = mid
        else:
            hi = mid
    return lo


class TestWorkedScenarios:
    def test_independent_attributes_recover_full_budget(self):
        res = calibrate(independent_joints(4), 4.0)
        assert res.epsilon_star == pytest.approx(4.0, abs=0.01 + 1e-9)
        assert res.worst_tpl <= 4.0 + 1e-9

    def test_perfectly_correlated_reduces_to_equal_split(self):
        res = calibrate(copy_joints(4), 4.0)
        assert res.epsilon_star == pytest.approx(1.0, abs=0.01 + 1e-9)
        assert res.iterations == 0

    def test_reference_pair_with_budget_two(self, maxleak_joint):
        joints = {(0, 1): maxleak_joint, (1, 0): maxleak_joint.transpose()}
        res = calibrate(joints, 2.0)
        # dominant direction leaks the whole shared budget, so 2 * eps <= 2
        assert res.epsilon_star == pytest.approx(1.0, abs=0.01 + 1e-9)
        assert res.epsilon_star == pytest.approx(
            bisection_oracle(joints, 2.0), abs=0.01 + 1e-6)

    def test_weakly_correlated_recovers_most_of_the_budget(self):
        n = 4
        res = calibrate(weak_exact_joints(n), 4.0)
        assert res.epsilon_star >= 4.0 - 0.1 * (n - 1) - 0.01
        assert res.epsilon_star > 4.0 / n * 3


class TestAgainstBisection:
    def test_randomized_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            joints = {}
            for i, j in ordered_pairs(n):
                if (j, i) in joints:
                    joints[(i, j)] = joints[(j, i)].transpose()
                    continue
                mat = rng.random((2, 2)) + 0.2
                mat /= mat.sum()
                joints[(i, j)] = JointDistribution(pair_labels(2), pair_labels(2), mat)
            eps_bar = float(rng.uniform(1.0, 4.0))
            res = calibrate(joints, eps_bar)
            assert abs(res.epsilon_star - bisection_oracle(joints, eps_bar)) <= 0.01 + 1e-6

    def test_empirical_weak_dataset(self):
        d = weak_ten(n=10_000, seed=1)
        joints = {(i, j): empirical_joint(d, i, j) for i, j in ordered_pairs(10)}
        res = calibrate(joints, 10.0, step=0.05)
        assert res.epsilon_star >= 3.0
        assert abs(res.epsilon_star - bisection_oracle(joints, 10.0)) <= 0.05 + 1e-6


class TestContracts:
    def test_feasibility_rechecked(self):
        joints = copy_joints(3)
        res = calibrate(joints, 3.0)
        n, conds = _as_conditionals(joints)
        assert worst_total(conds, n, res.epsilon_star) <= 3.0 + 1e-9

    def test_never_below_equal_split(self):
        for joints, bar in [(independent_joints(3), 2.0), (copy_joints(5), 5.0)]:
            res = calibrate(joints, bar)
            assert res.epsilon_star >= bar / len({i for i, _ in joints}) - 1e-12

    def test_trace_records_probes(self):
        res = calibrate(independent_joints(2), 1.0, step=0.1)
        assert res.trace[0][0] == pytest.approx(0.5)
        assert res.trace[-1][1] > 1.0 + 1e-9  # first infeasible probe ends the walk
        assert res.iterations == len(res.trace) - 2

    def test_missing_pair_rejected(self):
        joints = independent_joints(3)
        del joints[(1, 2)]
        with pytest.raises(InputError, match="missing"):
            calibrate(joints, 3.0)

    def test_exact_grr_engine(self, maxleak_joint):
        joints = {(0, 1): maxleak_joint, (1, 0): maxleak_joint.transpose()}
        res = calibrate(joints, 2.0, engine="exact-grr")
        assert res.epsilon_star == pytest.approx(1.0, abs=0.01 + 1e-9)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            calibrate(independent_joints(2), 0.0)
        with pytest.raises(InputError):
            calibrate(independent_joints(2), 1.0, step=-0.1)
        with pytest.raises(InputError):
            calibrate({}, 1.0)


class TestLeakageTable:
    EPSILONS = (0.0, 0.05, 0.5, 1.0, 2.5, 7.0, 30.0)

    @staticmethod
    def mixed_conditionals():
        """Random conditionals of several shapes, with zeros and flagged rows,
        and the binary tables of an empirical weak_ten sample."""
        rng = derive_rng(300, 0)
        conds = [random_conditional(rng) for _ in range(30)]
        conds.append(ConditionalDistribution(
            ("a", "b", "c"), ("u", "v", "w"),
            np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.0, 0.8]]),
            valid=np.array([True, False, True])))
        d = weak_ten(n=2_000, seed=3)
        return conds + [conditional_from_joint(empirical_joint(d, i, j), given="rows")
                        for i, j in ordered_pairs(4)]

    def test_bound_table_equals_public_kernel(self):
        conds = self.mixed_conditionals()
        table = _LeakageTable(conds, "bound")
        for eps in self.EPSILONS:
            want = [cpl_bound(c, BudgetParams(eps, 0.0)).leakage for c in conds]
            assert table([eps])[0].tolist() == want

    @pytest.mark.parametrize("case", ["weak_ten_walk", "mixed_dense"])
    def test_one_log_per_conditional_equals_public_kernel_densely(self, case):
        # The table takes one log per conditional, of its largest H, and
        # cpl_bound one per row pair; log is monotone, so the two agree bit
        # for bit. cpl_bound's per-pair leakages are evaluated for every
        # budget in one call, which gives each budget's values alone, and
        # cpl_bound itself is called at every 25th budget.
        if case == "weak_ten_walk":
            joints = pairwise_conditionals(weak_ten(n=30_000, seed=1))
            epsilons = [eps for eps, _ in calibrate(joints, 10.0, step=0.01).trace]
            assert len(epsilons) == 886
            conds = list(joints.values())
        else:
            # with a table whose every row pair is disjoint
            conds = self.mixed_conditionals() + [ConditionalDistribution(
                pair_labels(3), pair_labels(3), np.eye(3))]
            epsilons = (np.arange(5001) / 100).tolist()
            pairs = _BoundTable.build(conds)
            disjoint = [pairs.disjoint[sl] for sl in pairs.slices]
            assert any(d.any() and not d.all() for d in disjoint)
            assert any(d.all() for d in disjoint)
            assert any(not cond.valid.all() for cond in conds)
        got = _LeakageTable(conds, "bound")(epsilons)
        for c, cond in enumerate(conds):
            per_pair = _BoundTable.build([cond]).evaluate(epsilons)[1].tolist()
            want = [max(leaks) for leaks in per_pair]
            assert got[:, c].tolist() == want
            for e in range(0, len(epsilons), 25):
                assert cpl_bound(cond, BudgetParams(epsilons[e], 0.0)).leakage == want[e]

    def test_exact_grr_table_equals_public_kernel(self):
        # and the table of every other kind's exact engine: bit for bit the
        # closed form, and within a few ulps the public kernel's matmul
        conds = self.mixed_conditionals()
        for kind in KINDS:
            table = _LeakageTable(conds, f"exact-{kind}")
            for eps in self.EPSILONS:
                if kind == "she" and eps == 0:
                    continue  # she needs a positive budget
                got = table([eps])[0].tolist()
                assert got == [exact_closed_form(c, kind, eps) for c in conds]
                kernel = [cpl_exact(c, transition_matrix(MechanismSpec(kind, eps, c.n_cols)))
                          .leakage for c in conds]
                assert got == pytest.approx(kernel, rel=0, abs=1e-12)

    def test_many_budgets_equal_one_at_a_time(self):
        # more budgets than one block holds, so the call evaluates several blocks
        conds = self.mixed_conditionals()
        for engine in ("bound", "exact-grr", "exact-she"):
            table = _LeakageTable(conds, engine)
            epsilons = [0.01 * (i + 1) for i in range(2 * table.block + 3)]
            many = table(epsilons)
            assert many.shape == (len(epsilons), len(conds))
            for eps, row in zip(epsilons, many.tolist()):
                assert row == table([eps])[0].tolist()

    @pytest.mark.parametrize("kind", ["rappor", "oue", "blh", "olh", "she"])
    def test_one_symbol_channel_fails_where_transition_matrix_does(self, kind):
        # With k = 1, w + k - 1 can round below w (oue at 3.46 among them);
        # the channel's one entry is held at most 1, so neither the table nor
        # transition_matrix fails at any budget, and nothing leaks.
        cond = ConditionalDistribution(("a", "b"), ("u",), np.ones((2, 1)))
        table = _LeakageTable([cond], f"exact-{kind}")
        for eps in [3.46, *np.linspace(0.05, 40.0, 200).tolist()]:
            trans = transition_matrix(MechanismSpec(kind, eps, 1))
            assert 0.0 < trans.matrix[0, 0] <= 1.0
            assert cpl_exact(cond, trans).leakage == 0.0
            assert table([eps])[0].tolist() == [0.0]
        for eps in (np.arange(1, 4000) / 100).tolist():
            assert MechanismSpec(kind, eps, 1).keep_probability() <= 1.0

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_largest_budget_leaks_a_finite_amount(self, k):
        # Rows within the sum tolerance of 1 take e^eps times their extra
        # mass; at the cap that stays below the largest double, so every
        # engine reads a finite leakage of at most eps, as one pair alone does.
        cap = math.log(sys.float_info.max / 2)
        for slack in (0.0, 1e-10, -1e-10, 9.9e-10, -9.9e-10):
            matrix = np.zeros((3, k))
            matrix[0, 0], matrix[1, -1] = 1.0 + slack, 1.0 - slack
            matrix[2] = 1.0 / k
            cond = ConditionalDistribution(pair_labels(3), pair_labels(k), matrix)
            for engine in ("bound", *(f"exact-{kind}" for kind in KINDS if kind != "olh")):
                table = _LeakageTable([cond], engine)
                for eps in (cap, math.nextafter(cap, 0.0), 700.0):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        [leak] = table([eps])[0].tolist()
                        if engine == "bound":
                            alone = cpl_bound(cond, BudgetParams(eps)).leakage
                        else:
                            kind = engine[len("exact-"):]
                            alone = exact_closed_form(cond, kind, eps)
                            trans = transition_matrix(MechanismSpec(kind, eps, k))
                            # the closed form reads every row as summing to 1
                            assert leak == pytest.approx(cpl_exact(cond, trans).leakage,
                                                         rel=0, abs=1e-12 + 2 * abs(slack))
                    assert math.isfinite(leak) and leak <= eps + 1e-6
                    assert leak == alone
                with pytest.raises(InputError, match="epsilon"):
                    table([math.nextafter(cap, math.inf)])

    def test_unknown_engine(self):
        for engine in ("exact-nope", "exact", "grr", "exact-grr-exp", ["exact-grr"], None):
            with pytest.raises(InputError, match="engine"):
                _LeakageTable(self.mixed_conditionals(), engine)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_budget_rejected(self, budget):
        with pytest.raises(InputError, match="budget"):
            calibrate(independent_joints(2), budget)

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0])
    def test_step_rejected(self, step):
        with pytest.raises(InputError, match="step"):
            calibrate(independent_joints(2), 1.0, step=step)

    # the walk ends once the budget passes the ceiling plus the feasibility
    # tolerance: over 10^6 probes in every case, the last one through the tolerance
    @pytest.mark.parametrize("budget,step", [(2.0, 1e-300), (2.0, 1e-12), (1e-12, 1e-18)])
    def test_step_too_small_for_the_walk_rejected(self, budget, step):
        with pytest.raises(InputError, match="step"):
            calibrate(independent_joints(2), budget, step=step)

    @pytest.mark.parametrize("engine", ["bound", "exact-grr"])
    def test_overflowing_probe_is_an_input_error(self, engine):
        with pytest.raises(InputError, match="epsilon"):
            calibrate(independent_joints(2), 8000.0, step=1000.0, engine=engine)


def trace_hex(trace):
    return [(eps.hex(), worst.hex()) for eps, worst in trace]


class TestChunkedWalk:
    """The walk evaluates its probes a chunk at a time; its trace must be the
    probe-by-probe walk's, bit for bit."""

    @staticmethod
    def joints(n_attributes):
        d = mixed_five(n=3_000, seed=2)
        return {(i, j): empirical_joint(d, i, j) for i, j in ordered_pairs(n_attributes)}

    @pytest.mark.parametrize("engine", ["bound", "exact-grr", "exact-oue", "exact-she"])
    def test_trace_equals_probe_by_probe_walk(self, engine, monkeypatch):
        # Chunks small enough that the walk crosses several of them.
        monkeypatch.setattr(calibration, "_BLOCK_CELLS", 2 ** 12)
        joints = self.joints(4)
        res = calibrate(joints, 8.0, step=0.005, engine=engine)
        ref = calibrate_by_probe(joints, 8.0, 0.005, engine)
        n, conds = _as_conditionals(joints)
        assert len(ref) - 1 > 2 * _LeakageTable(_ordered(conds, n), engine).block
        assert trace_hex(res.trace) == trace_hex(ref)
        assert (res.epsilon_star, res.worst_tpl) == ref[-2]
        assert res.iterations == len(ref) - 2

    @pytest.mark.parametrize("engine", ["bound", "exact-grr"])
    def test_walks_ending_on_a_chunk_edge(self, engine, monkeypatch):
        # Small chunks, and steps that end walks on every position of a chunk,
        # among them its last and its first probe.
        monkeypatch.setattr(calibration, "_BLOCK_CELLS", 150)
        joints = self.joints(3)
        n, conds = _as_conditionals(joints)
        block = _LeakageTable(_ordered(conds, n), engine).block
        assert 1 < block < 10
        ends = set()
        for step in np.linspace(0.02, 0.2, 40).tolist():
            res = calibrate(joints, 6.0, step=step, engine=engine)
            assert trace_hex(res.trace) == trace_hex(calibrate_by_probe(joints, 6.0, step, engine))
            ends.add((len(res.trace) - 1) % block)  # the stopping probe's place in its chunk
        assert {0, block - 1} <= ends

    def test_budget_no_probe_reaches_cannot_fail_the_walk(self):
        # olh takes budgets below about 43.668 only. The walk from 22 stops at
        # 43, but the chunk runs on to 44, one step past the ceiling.
        joints = copy_joints(2)
        res = calibrate(joints, 44.0, step=1.0, engine="exact-olh")
        assert trace_hex(res.trace) == trace_hex(calibrate_by_probe(joints, 44.0, 1.0, "exact-olh"))
        assert res.epsilon_star == 42.0
        with pytest.raises(InputError, match="olh hash range"):
            calibrate(joints, 44.5, step=1.0, engine="exact-olh")


class TestWalkContract:
    """The walk returns the last grid budget before the first one over the
    ceiling, so every grid budget up to it keeps the ceiling. A kind whose
    decoded weight can fall as the budget rises may keep it again further on:
    olh's hash range g = round(e^eps) + 1 steps from 5 to 6 at eps = ln 4.5."""

    def test_a_later_grid_budget_can_keep_the_ceiling(self):
        joints = pairwise_conditionals(mixed_five(n=40_000, seed=0))
        n, conds = _as_conditionals(joints)
        assert worst_total(conds, n, 1.50, "exact-olh") == pytest.approx(2.2255, abs=5e-5)
        assert worst_total(conds, n, 1.51, "exact-olh") == pytest.approx(2.1902, abs=5e-5)
        res = calibrate(joints, 2.2079, step=0.01, engine="exact-olh")
        assert res.epsilon_star == pytest.approx(1.4816, abs=5e-5)
        assert all(worst <= 2.2079 for _, worst in res.trace[:-1])
        start = 2.2079 / n
        assert res.trace[-1][0] == start + (res.iterations + 1) * 0.01
        assert worst_total(conds, n, start + (res.iterations + 3) * 0.01, "exact-olh") <= 2.2079

    def test_exact_ss_falls_too(self):
        # 1 - a rounds at large budgets (ROADMAP, "Report-level leakage through one per-kind table")
        n, conds = _as_conditionals(pairwise_conditionals(mixed_five(n=40_000, seed=0)))
        assert worst_total(conds, n, 37.68, "exact-ss") == pytest.approx(75.42, abs=5e-3)
        assert worst_total(conds, n, 37.69, "exact-ss") == pytest.approx(74.15, abs=5e-3)


@pytest.fixture(scope="module")
def mixed_forty_thousand():
    return mixed_five(n=40_000, seed=1)


class TestPairwiseTotalIsNotABound:
    """An attribute's total is its own budget plus its pairwise leakages. When
    the neighbors depend on each other given the target, the exact leakage
    of releasing every attribute at once exceeds that sum (ROADMAP, "A sound
    set-level total for `calibrate`")."""

    @staticmethod
    def totals(d, target, eps):
        specs = [MechanismSpec("grr", eps, d.alphabet(z).size) for z in range(d.n_attributes)]
        exact = exact_set_leakage(d, specs, target, list(range(d.n_attributes))).leakage
        pairwise = eps
        for j in range(d.n_attributes):
            if j != target:
                cond = conditional_from_joint(empirical_joint(d, target, j))
                pairwise += cpl_exact(cond, transition_matrix(specs[j])).leakage
        return exact, pairwise

    @pytest.mark.parametrize("eps", [3.0, 6.0])
    @pytest.mark.parametrize("target", [0, 3, 4])
    def test_set_leakage_exceeds_pairwise_total(self, mixed_forty_thousand, target, eps):
        exact, pairwise = self.totals(mixed_forty_thousand, target, eps)
        assert exact > pairwise

    def test_largest_excess(self, mixed_forty_thousand):
        exact, pairwise = self.totals(mixed_forty_thousand, 3, 6.0)
        assert exact == pytest.approx(12.2066, abs=5e-5)
        assert pairwise == pytest.approx(12.0595, abs=5e-5)
