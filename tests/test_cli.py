import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpl_kit
from cpl_kit import EstimationConfig, MechanismSpec, conditional_from_joint, load_csv
from cpl_kit.cli import main
from cpl_kit.fixtures import MAXLEAK_JOINT
from cpl_kit.mechanisms import KINDS
from conftest import decode_rows, row_leakage


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture CSVs shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["fixtures", "generate", "--out-dir", str(root / "fx"), "--seed", "1",
                 "--samples",
                 "maxleak_pair=30000,mixed_five=20000,independent_pair=20000,"
                 "weak_ten=5000,noisy_copy=10000,perfect_copy=5000,"
                 "chain_five=5000,latent_five=5000"])
    assert code == 0
    cond = conditional_from_joint(
        __import__("cpl_kit").JointDistribution(
            ("x0", "x1", "x2", "x3"), ("y0", "y1", "y2", "y3"), MAXLEAK_JOINT))
    (root / "cond.json").write_text(json.dumps(cond.to_json()), encoding="utf-8")
    return root


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str) -> dict:
    return json.loads(out)


class TestEnvelope:
    def test_manifest_and_units(self, capsys, workdir):
        code, out, _ = run(capsys, ["analyze", "bound", "--cond", str(workdir / "cond.json"),
                                    "--epsilon", "1"])
        assert code == 0
        obj = payload(out)
        assert obj["units"]["leakage"] == "nats"
        manifest = obj["manifest"]
        assert {"command", "seed", "config_digest", "version", "wall_time_s"} <= set(manifest)

    def test_output_file(self, capsys, workdir, tmp_path):
        out_file = tmp_path / "res.json"
        code, out, _ = run(capsys, ["analyze", "bound", "--cond", str(workdir / "cond.json"),
                                    "--epsilon", "1", "--out", str(out_file)])
        assert code == 0 and out == ""
        assert "result" in json.loads(out_file.read_text())


class TestAnalyze:
    def test_bound_values(self, capsys, workdir):
        code, out, _ = run(capsys, ["analyze", "bound", "--cond", str(workdir / "cond.json"),
                                    "--epsilon", "1", "--delta", "0"])
        res = payload(out)["result"]
        assert res["leakage_nats"] == 1.0
        assert res["relaxation"] == 0.0
        assert res["B"] == 0.0

    @pytest.mark.parametrize("mechanism", KINDS)
    def test_exact_for_every_mechanism(self, capsys, workdir, mechanism):
        code, out, _ = run(capsys, ["analyze", "exact", "--cond", str(workdir / "cond.json"),
                                    "--mechanism", mechanism, "--epsilon", "1"])
        assert code == 0
        assert 0.0 < payload(out)["result"]["leakage_nats"] <= 1.0 + 1e-9

    def test_exact_with_witness(self, capsys, workdir):
        code, out, _ = run(capsys, ["analyze", "exact", "--cond", str(workdir / "cond.json"),
                                    "--mechanism", "grr", "--epsilon", "1"])
        res = payload(out)["result"]
        assert res["leakage_nats"] == pytest.approx(1.0, abs=1e-9)
        assert set(res["witness"]) == {"output", "x", "x_prime"}

    def test_bits_display(self, capsys, workdir):
        _, out, _ = run(capsys, ["analyze", "bound", "--cond", str(workdir / "cond.json"),
                                 "--epsilon", "1", "--bits"])
        res = payload(out)["result"]
        assert res["leakage_bits"] == pytest.approx(res["leakage_nats"] / math.log(2))

    def test_matrix_reproduces_reference_entries(self, capsys, workdir):
        code, out, _ = run(capsys, ["analyze", "matrix", "--data",
                                    str(workdir / "fx" / "maxleak_pair.csv"),
                                    "--epsilon", "1"])
        res = payload(out)["result"]
        leaks = {(e["target"], e["neighbor"]): e["leakage_nats"] for e in res["entries"]}
        assert leaks[(0, 1)] == pytest.approx(1.0, abs=1e-9)
        assert leaks[(1, 0)] == pytest.approx(0.6203, abs=0.02)
        assert res["tcpl_nats"] == pytest.approx(sum(leaks.values()))
        assert res["metrics"][0]["nmi"] == pytest.approx(0.164, abs=0.01)

    def test_matrix_zero_budget_all_zero(self, capsys, workdir):
        _, out, _ = run(capsys, ["analyze", "matrix", "--data",
                                 str(workdir / "fx" / "maxleak_pair.csv"),
                                 "--epsilon", "0"])
        res = payload(out)["result"]
        assert all(e["leakage_nats"] == 0.0 for e in res["entries"])


class TestEstimate:
    def test_reference_pair_estimate(self, capsys, workdir):
        code, out, _ = run(capsys, [
            "estimate", "--data", str(workdir / "fx" / "maxleak_pair.csv"),
            "--mechanism", "grr", "--epsilon", "1", "--target", "0", "--neighbors", "1",
            "--r", "2", "--surrogates", "99", "--seed", "42"])
        assert code == 0
        res = payload(out)["result"]
        assert res["leakage_nats"] == pytest.approx(1.0, abs=0.05)
        assert res["significant"] is True
        assert res["p_value"] < 0.05

    def test_target_among_neighbors_gives_total_leakage(self, capsys, workdir):
        data = workdir / "fx" / "maxleak_pair.csv"
        code, out, err = run(capsys, [
            "estimate", "--data", str(data), "--mechanism", "grr", "--epsilon", "1",
            "--target", "0", "--neighbors", "0,1", "--r", "2", "--surrogates", "20",
            "--seed", "4"])
        assert code == 0, err
        res = payload(out)["result"]
        d = load_csv(data)
        cfg = EstimationConfig(expansion=2, surrogates=20, seed=4)
        specs = [MechanismSpec("grr", 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        want = row_leakage(d, *decode_rows(d, specs, cfg), 0, [0, 1], cfg)
        assert (res["neighbors"], res["leakage_nats"], res["p_value"]) == (
            [0, 1], want.leakage, want.p_value)
        assert res["leakage_nats"] > 1.0  # the own report's budget and more

    def test_attribute_never_perturbed_cannot_fail_the_run(self, capsys, tmp_path):
        # c is constant, so it has no grr spec; it is neither the target nor
        # a neighbor. It comes last, as streams are keyed by attribute index.
        rows = [(i % 3, (i * 7) % 4 if i % 5 else i % 3) for i in range(3000)]
        (tmp_path / "abc.csv").write_text(
            "a,b,c\n" + "".join(f"{a},{b},z\n" for a, b in rows), encoding="utf-8")
        (tmp_path / "ab.csv").write_text(
            "a,b\n" + "".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8")
        results = []
        for name in ("abc.csv", "ab.csv"):
            code, out, err = run(capsys, ["estimate", "--data", str(tmp_path / name),
                                          "--mechanism", "grr", "--epsilon", "1",
                                          "--target", "0", "--neighbors", "1", "--r", "2",
                                          "--surrogates", "20"])
            assert code == 0, err
            results.append(payload(out)["result"])
        assert results[0] == results[1]


class TestBenchmarks:
    def test_analyzers_regions(self, capsys, workdir):
        code, out, _ = run(capsys, ["benchmark", "analyzers", "--data",
                                    str(workdir / "fx" / "mixed_five.csv"),
                                    "--epsilons", "1"])
        runs = payload(out)["result"]["runs"]
        points = runs[0]["points"]
        assert points["spl-anl"]["region"] == "R2"
        assert points["grr-anl"]["region"] in ("P1", "R1")

    def test_utility_rows(self, capsys, workdir):
        code, out, _ = run(capsys, ["benchmark", "utility", "--data",
                                    str(workdir / "fx" / "noisy_copy.csv"),
                                    "--mechanisms", "grr,oue", "--epsilons", "1,3",
                                    "--seed", "3"])
        rows = payload(out)["result"]["rows"]
        assert len(rows) == 4
        grr_rows = {r["epsilon"]: r for r in rows if r["mechanism"] == "grr"}
        assert grr_rows[1.0]["norm_tcpl"] == pytest.approx(1.0, abs=0.1)
        assert grr_rows[3.0]["freq_nmse"] <= grr_rows[1.0]["freq_nmse"]

    def test_blank_mechanism_entries_skipped(self, capsys, workdir):
        # as in every number list: "grr," is "grr", not an unknown kind ''
        results = []
        for kinds in ("grr,", "grr", ",grr,,"):
            code, out, _ = run(capsys, ["benchmark", "utility", "--data",
                                        str(workdir / "fx" / "noisy_copy.csv"),
                                        "--mechanisms", kinds, "--epsilons", "1", "--r", "1"])
            assert code == 0
            results.append(payload(out)["result"])
        assert results[0] == results[1] == results[2]
        assert [row["mechanism"] for row in results[0]["rows"]] == ["grr"]


class TestCalibrate:
    def test_independent_recovers_budget(self, capsys, workdir):
        code, out, _ = run(capsys, ["calibrate", "--data",
                                    str(workdir / "fx" / "independent_pair.csv"),
                                    "--budget", "2", "--step", "0.01"])
        res = payload(out)["result"]
        # empirical near-independence: most of the budget comes back
        assert res["epsilon_star"] >= 1.9
        assert res["trace"][0]["epsilon"] == pytest.approx(1.0)

    def test_weak_dataset_beats_equal_split(self, capsys, workdir):
        code, out, _ = run(capsys, ["calibrate", "--data",
                                    str(workdir / "fx" / "weak_ten.csv"),
                                    "--budget", "10", "--step", "0.05"])
        res = payload(out)["result"]
        assert res["epsilon_star"] >= 3.0

    @pytest.mark.parametrize("engine", ["bound", "exact-grr"])
    def test_walk_past_the_largest_probe_budget_exits_two(self, capsys, workdir, engine):
        # every probe from 200 on meets the ceiling, up to 709 < 709.09 < 710
        code, out, err = run(capsys, ["calibrate", "--data", str(workdir / "fx" / "weak_ten.csv"),
                                      "--budget", "2000", "--step", "1", "--engine", engine])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert "largest budget a probe can take (709.09)" in error["message"]

    def test_walk_ending_below_the_largest_probe_budget(self, capsys, workdir):
        # the second probe, at 701, passes the ceiling; no budget past 709.09 is probed
        code, out, _ = run(capsys, ["calibrate", "--data",
                                    str(workdir / "fx" / "perfect_copy.csv"),
                                    "--budget", "1400", "--step", "1"])
        assert code == 0
        res = payload(out)["result"]
        assert res["epsilon_star"] == 700.0 and res["iterations"] == 0
        assert res["trace"] == [{"epsilon": 700.0, "worst_tpl_nats": 1400.0},
                                {"epsilon": 701.0, "worst_tpl_nats": 1402.0}]


class TestDeterminism:
    SUBCOMMANDS = [
        ["analyze", "matrix", "--data", "fx/maxleak_pair.csv", "--epsilon", "1"],
        ["analyze", "bound", "--cond", "cond.json", "--epsilon", "1"],
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "grr", "--epsilon", "1"],
        ["estimate", "--data", "fx/independent_pair.csv", "--mechanism", "grr",
         "--epsilon", "1", "--target", "0", "--neighbors", "1", "--r", "1",
         "--surrogates", "19", "--seed", "5"],
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1"],
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv",
         "--mechanisms", "grr,ss", "--epsilons", "1", "--seed", "2"],
        ["calibrate", "--data", "fx/independent_pair.csv", "--budget", "2",
         "--step", "0.1"],
    ]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_rerun_byte_identical(self, capsys, workdir, argv):
        argv = [str(workdir / a) if a.startswith(("fx/", "cond.")) else a for a in argv]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        r1, r2 = payload(out1), payload(out2)
        r1["manifest"].pop("wall_time_s")
        r2["manifest"].pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_thread_count_not_in_config_digest(self, capsys, workdir, tmp_path):
        # no thread count reaches the digest: estimate has no --threads flag,
        # and an argument that cannot change the result (--out) is left out
        argv = ["estimate", "--data", str(workdir / "fx" / "independent_pair.csv"),
                "--mechanism", "grr", "--epsilon", "1", "--target", "0", "--neighbors", "1",
                "--r", "1", "--surrogates", "19", "--seed", "5"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2
        _, out1, _ = run(capsys, argv)
        out_file = tmp_path / "estimate.json"
        assert main([*argv, "--out", str(out_file)]) == 0
        r1, r2 = payload(out1), json.loads(out_file.read_text(encoding="utf-8"))
        assert r1["manifest"]["config_digest"] == r2["manifest"]["config_digest"]
        assert r1["result"] == r2["result"]

    def test_threads_only_on_estimate(self, workdir):
        # estimate lost its --threads flag; calibrate never had one
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--data", str(workdir / "fx" / "independent_pair.csv"),
                  "--budget", "2", "--threads", "2"])
        assert exc.value.code == 2

    # the subcommands that draw no randomness
    SEEDLESS = [
        ["analyze", "matrix", "--data", "fx/maxleak_pair.csv", "--epsilon", "1"],
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "grr", "--epsilon", "1"],
        ["analyze", "bound", "--cond", "cond.json", "--epsilon", "1"],
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1"],
        ["calibrate", "--data", "fx/independent_pair.csv", "--budget", "2", "--step", "0.1"],
    ]

    @pytest.mark.parametrize("argv", SEEDLESS, ids=lambda a: "-".join(a[:2]))
    def test_no_seed_where_nothing_is_drawn(self, capsys, workdir, monkeypatch, argv):
        # a seed cannot change these results, so there is none to set or to digest
        argv = [str(workdir / a) if a.startswith(("fx/", "cond.")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2
        _, out, _ = run(capsys, argv)
        monkeypatch.setenv("CPL_KIT_SEED", "99")
        _, out99, _ = run(capsys, argv)
        r, r99 = payload(out), payload(out99)
        assert r["manifest"]["seed"] is None and r99["manifest"]["seed"] is None
        assert r["manifest"]["config_digest"] == r99["manifest"]["config_digest"]
        assert r["result"] == r99["result"]

    @pytest.mark.parametrize("flag", ["--threads", "--workers"])
    def test_no_thread_knob_on_benchmark_utility(self, workdir, flag):
        # the utility benchmark sizes its pool itself; its rows cannot depend on it
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "utility", "--data", str(workdir / "fx" / "noisy_copy.csv"),
                  "--mechanisms", "grr", "--epsilons", "1", "--r", "1", flag, "2"])
        assert exc.value.code == 2

    def test_benchmark_utility_config_digest_pinned(self, capsys, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        _, out, _ = run(capsys, ["benchmark", "utility", "--data", "fx/noisy_copy.csv",
                                 "--mechanisms", "grr", "--epsilons", "1", "--r", "1",
                                 "--seed", "3"])
        assert payload(out)["manifest"]["config_digest"] == (
            "03cf88d6e04414c8efc72a70753f98b011606eb7878e178d1289e3014f2e082a")

    def test_seed_env_fallback(self, capsys, workdir, monkeypatch):
        monkeypatch.setenv("CPL_KIT_SEED", "99")
        _, out, _ = run(capsys, ["estimate", "--data",
                                 str(workdir / "fx" / "independent_pair.csv"),
                                 "--mechanism", "grr", "--epsilon", "1", "--target", "0",
                                 "--neighbors", "1", "--r", "1", "--surrogates", "19"])
        assert payload(out)["manifest"]["seed"] == 99

    def test_bad_seed_env_fails_only_seeded_commands(self, capsys, workdir, monkeypatch):
        monkeypatch.setenv("CPL_KIT_SEED", "abc")
        code, out, _ = run(capsys, ["analyze", "bound", "--cond", str(workdir / "cond.json"),
                                    "--epsilon", "1"])
        assert code == 0 and payload(out)["manifest"]["seed"] is None
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(workdir / "fx" / "independent_pair.csv"),
                  "--mechanism", "grr", "--epsilon", "1", "--target", "0", "--neighbors", "1"])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestStrictJson:
    # the subcommands of acceptance test 10
    SUBCOMMANDS = [
        ["analyze", "matrix", "--data", "fx/maxleak_pair.csv", "--epsilon", "1"],
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "grr", "--epsilon", "1"],
        ["analyze", "bound", "--cond", "cond.json", "--epsilon", "1"],
        ["estimate", "--data", "fx/maxleak_pair.csv", "--mechanism", "grr",
         "--epsilon", "1", "--target", "0", "--neighbors", "1", "--r", "1",
         "--surrogates", "49", "--seed", "11"],
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1"],
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv",
         "--mechanisms", "grr,oue,ss", "--epsilons", "1", "--seed", "2"],
        ["calibrate", "--data", "fx/independent_pair.csv", "--budget", "2",
         "--step", "0.05"],
    ]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_output_has_no_nan_or_infinity(self, capsys, workdir, argv):
        argv = [str(workdir / a) if a.startswith(("fx/", "cond.")) else a for a in argv]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "result" in json.loads(out, parse_constant=reject_constant)

    @pytest.mark.parametrize("argv, matrix", [
        (["analyze", "exact", "--mechanism", "grr"], [[1, 0], [0, 0.9999999999]]),
        (["analyze", "bound"], [[1.0000000005, 0, 0], [0.5, 0.25, 0.25]]),
    ], ids=["exact", "bound"])
    def test_largest_budget_writes_a_finite_leakage(self, capsys, tmp_path, argv, matrix):
        # both rows lie within the row-sum tolerance of 1
        eps = math.log(sys.float_info.max / 2)
        cond = tmp_path / "cond.json"
        cond.write_text(json.dumps({"row_labels": ["a", "b"],
                                    "col_labels": [str(c) for c in range(len(matrix[0]))],
                                    "matrix": matrix}), encoding="utf-8")
        code, out, _ = run(capsys, [*argv, "--cond", str(cond), "--epsilon", repr(eps)])
        assert code == 0
        leakage = json.loads(out, parse_constant=reject_constant)["result"]["leakage_nats"]
        assert isinstance(leakage, float) and leakage <= eps + 1e-6
        above = repr(math.nextafter(eps, math.inf))
        code, out, err = run(capsys, [*argv, "--cond", str(cond), "--epsilon", above])
        assert code == 2 and out == "" and "epsilon" in json.loads(err)["error"]["message"]


class TestErrors:
    @pytest.mark.parametrize("flags", [
        ["--budget", "nan"], ["--budget", "inf"], ["--budget", "2", "--step", "nan"],
        ["--budget", "2", "--step", "inf"],
        ["--budget", "8000", "--step", "1000", "--engine", "exact-grr"],
        ["--budget", "8000", "--step", "1000", "--engine", "bound"],
        ["--budget", "2", "--step", "1e-300"],
    ])
    def test_calibrate_bad_budget_exits_two(self, capsys, workdir, flags):
        code, out, err = run(capsys, ["calibrate", "--data",
                                      str(workdir / "fx" / "independent_pair.csv"), *flags])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "800"])
    @pytest.mark.parametrize("engine", [[], ["--mechanism", "grr"]])
    def test_matrix_bad_epsilon_exits_two(self, capsys, workdir, epsilon, engine):
        code, out, err = run(capsys, ["analyze", "matrix", "--data",
                                      str(workdir / "fx" / "maxleak_pair.csv"),
                                      "--epsilon", epsilon, *engine])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("engine", [[], ["--mechanism", "grr"]])
    def test_matrix_bad_delta_exits_two(self, capsys, workdir, engine):
        # the exact engine ignores delta, but it rejects the same deltas as the bound
        code, out, err = run(capsys, ["analyze", "matrix", "--data",
                                      str(workdir / "fx" / "maxleak_pair.csv"),
                                      "--epsilon", "1", "--delta", "7", *engine])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "InputError",
                                            "message": "delta must be in [0, 1)"}

    def test_matrix_delta_with_mechanism_exits_two(self, capsys, workdir):
        # the exact engine reads epsilon alone, so a delta there would only be echoed
        code, out, err = run(capsys, ["analyze", "matrix", "--data",
                                      str(workdir / "fx" / "mixed_five.csv"),
                                      "--epsilon", "1", "--delta", "0.2", "--mechanism", "grr"])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "--delta" in error["message"]
        code, out, _ = run(capsys, ["analyze", "matrix", "--data",
                                    str(workdir / "fx" / "mixed_five.csv"),
                                    "--epsilon", "1", "--delta", "0", "--mechanism", "grr"])
        assert code == 0 and payload(out)["result"]["delta"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv", "--mechanisms", "olh",
         "--epsilons", "50"],
        ["estimate", "--data", "fx/noisy_copy.csv", "--mechanism", "olh", "--epsilon", "50",
         "--target", "0", "--neighbors", "1"],
    ])
    def test_olh_budget_beyond_hash_range_exits_two(self, capsys, workdir, argv):
        argv = [str(workdir / a) if a.startswith("fx/") else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "olh hash range" in error["message"]

    def test_benchmark_utility_first_failing_cell_reported(self, capsys, workdir):
        # grid order is she/0, she/50, olh/0, olh/50: she at 0 fails before
        # olh's hash range is ever checked
        code, out, err = run(capsys, ["benchmark", "utility", "--data",
                                      str(workdir / "fx" / "noisy_copy.csv"),
                                      "--mechanisms", "she,olh", "--epsilons", "0,50",
                                      "--r", "1"])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "InputError", "message": "she requires epsilon > 0"}

    def test_one_attribute_dataset(self, capsys, tmp_path):
        # no attribute pairs: the analyzer benchmark refuses, the others report none
        path = tmp_path / "one.csv"
        path.write_text("a\nx\ny\nx\ny\nz\n", encoding="utf-8")
        code, out, err = run(capsys, ["benchmark", "analyzers", "--data", str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "InputError", "message": "the analyzer benchmark needs at least two attributes"}
        code, out, err = run(capsys, ["analyze", "matrix", "--data", str(path), "--epsilon", "1"])
        assert code == 0, err
        res = payload(out)["result"]
        assert (res["entries"], res["tcpl_nats"], res["metrics"]) == ([], 0.0, [])
        code, out, err = run(capsys, ["benchmark", "utility", "--data", str(path),
                                      "--mechanisms", "grr,oue", "--epsilons", "1", "--r", "1"])
        assert code == 0, err
        assert [row["norm_tcpl"] for row in payload(out)["result"]["rows"]] == [0.0, 0.0]

    @pytest.mark.parametrize("target, neighbors", [("5", "1"), ("0", "-1"), ("0", "2")])
    def test_estimate_attribute_out_of_range_exits_two(self, capsys, workdir, target, neighbors):
        code, out, err = run(capsys, ["estimate", "--data",
                                      str(workdir / "fx" / "maxleak_pair.csv"),
                                      "--mechanism", "grr", "--epsilon", "1", "--target", target,
                                      "--neighbors", neighbors, "--r", "1", "--surrogates", "5"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_estimate_repeated_neighbor_exits_two(self, capsys, workdir):
        code, out, err = run(capsys, ["estimate", "--data",
                                      str(workdir / "fx" / "latent_five.csv"),
                                      "--mechanism", "grr", "--epsilon", "0.2", "--target", "0",
                                      "--neighbors", "3,3", "--r", "1", "--surrogates", "5"])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "distinct" in error["message"]

    @pytest.mark.parametrize("content, message", [
        (b"a,b\nx,y\n\xff\xfe,z\n", ":3: not UTF-8 text"),
        (b"a,b\nx,y\n" + b"x" * 131_073 + b",z\n", ":3: field larger than field limit"),
        (b"a,a\nx,y\n", "header repeats column names"),
    ])
    def test_unreadable_csv_exits_two(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code, out, err = run(capsys, ["analyze", "matrix", "--data", str(path), "--epsilon", "1"])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and message in error["message"]

    def test_missing_file_exits_two_with_json(self, capsys):
        code, out, err = run(capsys, ["analyze", "matrix", "--data", "/nope.csv",
                                      "--epsilon", "1"])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "matrix"])  # --data and --epsilon missing
        assert exc.value.code == 2

    def test_bad_mechanism_for_exact(self, capsys, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "exact", "--cond", str(workdir / "cond.json"),
                  "--mechanism", "nope", "--epsilon", "1"])
        assert exc.value.code == 2

    def test_exact_takes_domain_size_from_table(self, workdir):
        # the channel's k is the table's column count; there is no --k to disagree with it
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "exact", "--cond", str(workdir / "cond.json"),
                  "--mechanism", "grr", "--epsilon", "1", "--k", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [
        b'{"row_labels": ["a", "b"], "col_labels": ["u", "v"], "matrix": [[0.5], [0.5, 0.5]]}',
        b'{"row_labels": ["a", "b"], "col_labels": ["u", "v"], "matrix": [[1, 0], [0, 1]]}\xff',
        b"[1, 2]", b'"table"', b"3", b"null",
    ], ids=["ragged-matrix", "not-utf8", "list", "string", "number", "null"])
    @pytest.mark.parametrize("command", [["bound"], ["exact", "--mechanism", "grr"]])
    def test_malformed_conditional_exits_two(self, capsys, tmp_path, content, command):
        path = tmp_path / "cond.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["analyze", command[0], "--cond", str(path),
                                      "--epsilon", "1", *command[1:]])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "not a valid conditional table" in error["message"]

    def test_stdout_closed_early_exits_two_without_traceback(self, workdir):
        # about 0.8 MB of envelope, more than a pipe holds, so the writer
        # is still writing when its reader leaves
        src = str(Path(cpl_kit.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-B", "-m", "cpl_kit.cli", "calibrate", "--data",
             str(workdir / "fx" / "weak_ten.csv"), "--budget", "10", "--step", "0.001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert json.loads(err)["error"]["type"] == "BrokenPipeError"
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["bound"], ["exact", "--mechanism", "grr"]])
    def test_zero_column_conditional_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "cond.json"
        path.write_text('{"row_labels": ["a", "b"], "col_labels": [], "matrix": [[], []]}',
                        encoding="utf-8")
        code, out, err = run(capsys, ["analyze", command[0], "--cond", str(path),
                                      "--epsilon", "1", *command[1:]])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "sum to 1" in error["message"]

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", [["bound"], ["exact", "--mechanism", "grr"]])
    def test_non_finite_conditional_exits_two(self, capsys, tmp_path, entry, command):
        # every comparison with NaN is false, so a NaN entry once passed the
        # range and row-sum checks and came out as a leakage
        path = tmp_path / "cond.json"
        path.write_text('{"row_labels": ["a", "b"], "col_labels": ["u", "v"], '
                        f'"matrix": [[{entry}, 1.0], [0.5, 0.5]]}}', encoding="utf-8")
        code, out, err = run(capsys, ["analyze", command[0], "--cond", str(path),
                                      "--epsilon", "1", *command[1:]])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "finite" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["estimate", "--data", "fx/maxleak_pair.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "0", "--neighbors", "x"],
        ["estimate", "--data", "fx/maxleak_pair.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "0", "--neighbors", ""],
        ["benchmark", "analyzers", "--data", "fx/maxleak_pair.csv", "--epsilons", "1,x"],
        ["benchmark", "analyzers", "--data", "fx/maxleak_pair.csv", "--thresholds", "0.2,x"],
        ["benchmark", "utility", "--data", "fx/maxleak_pair.csv", "--epsilons", ""],
        ["benchmark", "utility", "--data", "fx/maxleak_pair.csv", "--epsilons", ","],
        ["benchmark", "utility", "--data", "fx/maxleak_pair.csv", "--mechanisms", ""],
        ["benchmark", "utility", "--data", "fx/maxleak_pair.csv", "--mechanisms", ",,"],
        *(["fixtures", "generate", "--out-dir", "fx/out", "--samples", samples]
          for samples in ("maxleak_pair=abc", "maxleak_pair=-3", "maxleak_pair",
                          "nope=10", "maxleak_pair=0", "maxleak_pair=10,weak_ten=0")),
    ], ids=lambda a: " ".join(a[-2:]))
    def test_bad_list_entry_exits_two(self, capsys, workdir, argv):
        argv = [str(workdir / a) if a.startswith("fx/") else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"
        assert not (workdir / "fx" / "out").exists()

    def test_numerical_infeasibility_exits_three(self, capsys, workdir, monkeypatch):
        from cpl_kit import InfeasibleBudgetError
        import cpl_kit.calibration as calibration_mod

        def boom(*args, **kwargs):
            raise InfeasibleBudgetError("ceiling violated")

        # the calibrate handler imports calibrate from its module when it runs
        monkeypatch.setattr(calibration_mod, "calibrate", boom)
        code, _, err = run(capsys, ["calibrate", "--data",
                                    str(workdir / "fx" / "independent_pair.csv"),
                                    "--budget", "2"])
        assert code == 3
        assert json.loads(err)["error"]["type"] == "InfeasibleBudgetError"


def fresh_interpreter(script: str, *args: str, env: dict | None = None) -> str:
    """Stdout of ``script`` run by a new interpreter that imports this cpl_kit.
    ``env`` overrides the child's environment. Unless it sets
    ``OPENBLAS_NUM_THREADS``, the child gets none, so the shell that runs the
    tests cannot decide how many BLAS threads the child starts."""
    src = str(Path(cpl_kit.__file__).resolve().parent.parent)
    child = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    child.update(env or {}, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-B", "-c", script, *args], capture_output=True,
                          text=True, env=child, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImports:
    """A command loads only the modules it runs, the package's lazily
    imported names resolve as the eager ones do, and importing the package
    starts no BLAS worker thread and leaves the environment as it was."""

    RUN = """
import contextlib, io, json, sys
from cpl_kit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cpl_kit."))]))
"""

    @pytest.mark.parametrize("argv, loaded, not_loaded", [
        (["calibrate", "--data", "weak_ten.csv", "--budget", "10", "--step", "0.5"],
         "calibration", ("benchmarks", "statistical", "correlation_metrics", "fixtures", "rng")),
        (["estimate", "--data", "maxleak_pair.csv", "--mechanism", "grr", "--epsilon", "1",
          "--target", "0", "--neighbors", "1", "--r", "1", "--surrogates", "5"],
         "statistical", ("benchmarks", "calibration", "correlation_metrics", "fixtures")),
    ], ids=["calibrate", "estimate"])
    def test_command_loads_only_what_it_runs(self, workdir, argv, loaded, not_loaded):
        argv = [str(workdir / "fx" / a) if a.endswith(".csv") else a for a in argv]
        code, modules = json.loads(fresh_interpreter(self.RUN, *argv))
        assert code == 0
        assert f"cpl_kit.{loaded}" in modules
        assert not {f"cpl_kit.{m}" for m in not_loaded} & set(modules)

    def test_every_public_name_resolves(self):
        script = """
import importlib, inspect, sys
import cpl_kit
lazy = ("benchmarks", "calibration", "correlation_metrics", "statistical")
assert not any(f"cpl_kit.{m}" in sys.modules for m in lazy)
for name in cpl_kit.__all__:
    value = getattr(cpl_kit, name)
    module = cpl_kit._LAZY.get(name)
    if module:
        assert value is getattr(importlib.import_module(f"cpl_kit.{module}"), name), name
    assert name in dir(cpl_kit), name
namespace = {}
exec("from cpl_kit import *", namespace)
assert set(cpl_kit.__all__) <= set(namespace)
assert all(namespace[name] is getattr(cpl_kit, name) for name in cpl_kit.__all__)
assert inspect.isfunction(cpl_kit.cpl_bound) and inspect.isfunction(cpl_kit.cpl_exact)
try:
    cpl_kit.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""
        assert fresh_interpreter(script) == "ok\n"

    def test_import_leaves_the_environment_as_it_was(self):
        script = """
import os
before = dict(os.environ)
import cpl_kit
assert dict(os.environ) == before
print("OPENBLAS_NUM_THREADS" in os.environ)
"""
        assert fresh_interpreter(script) == "False\n"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_import_starts_no_blas_thread(self):
        script = "import os, cpl_kit; print(len(os.listdir('/proc/self/task')))"
        assert fresh_interpreter(script) == "1\n"

    def test_caller_blas_thread_count_is_kept(self):
        script = "import os, cpl_kit; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_interpreter(script, env={"OPENBLAS_NUM_THREADS": "2"}) == "2\n"

    RESULT = """
import contextlib, io, json, sys
from cpl_kit.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(sys.argv[1:]) == 0
envelope = json.loads(out.getvalue())
print(json.dumps([envelope["result"], envelope["manifest"]["config_digest"]], sort_keys=True))
"""

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--data", "weak_ten.csv", "--budget", "10", "--step", "0.01",
         "--engine", "exact-grr"],
        ["analyze", "matrix", "--data", "latent_five.csv", "--mechanism", "grr",
         "--epsilon", "1"],
    ], ids=["calibrate-exact-grr", "analyze-matrix"])
    def test_results_do_not_depend_on_blas_threads(self, workdir, argv):
        argv = [str(workdir / "fx" / a) if a.endswith(".csv") else a for a in argv]
        one, two = (fresh_interpreter(self.RESULT, *argv, env={"OPENBLAS_NUM_THREADS": n})
                    for n in ("1", "2"))
        assert one == two
