"""Golden outputs: small CLI runs whose ``result`` and ``config_digest`` are
pinned by digest, so that a refactor meant to keep every number is checked
bit for bit rather than within a tolerance.

A digest is the sha256 of the ``result`` object as sorted-key JSON. Floats
print as their shortest round-trip repr, so equal digests mean equal bits.
A change that moves a result on purpose updates its digest here and says so.
"""
import hashlib
import json

import pytest

from cpl_kit.cli import main

SAMPLES = ("maxleak_pair=20000,latent_five=8000,noisy_copy=10000,mixed_five=5000,"
           "independent_pair=1000,perfect_copy=1000,weak_ten=1000,chain_five=1000")

# A conditional table for ``analyze exact`` and ``analyze bound``: its first
# row is flagged, so the usable rows start at 1, and its last column is zero
# under row 1 alone.
COND = {"row_labels": ["a", "b", "c", "d", "e"], "col_labels": ["w", "x", "y", "z"],
        "matrix": [[0, 0, 0, 0], [0.5, 0.3, 0.2, 0], [0.1, 0.2, 0.3, 0.4],
                   [0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.1, 0.4]],
        "valid": [False, True, True, True, True]}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["fixtures", "generate", "--out-dir", str(root / "fx"), "--seed", "1",
                 "--samples", SAMPLES, "--out", str(root / "manifest.json")]) == 0
    (root / "cond.json").write_text(json.dumps(COND), encoding="utf-8")
    return root


# (argv, sha256 of the sorted-key result JSON, config_digest); the data paths
# are relative to the fixture directory, so the config digest is stable too.
GOLDEN = {
    "estimate-grr": (
        ["estimate", "--data", "fx/maxleak_pair.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "0", "--neighbors", "1", "--r", "4", "--surrogates", "20", "--seed", "3"],
        "d6c4a2d259bef9cc1f2ef1061b8bb1412d4fbc9ae972464f300276d7b41bfbd1",
        "715de061e89f8a8f9267efc47bdbcf566931a4dfbe57c93e1261fce69b64db63"),
    "estimate-olh": (
        ["estimate", "--data", "fx/latent_five.csv", "--mechanism", "olh", "--epsilon", "2",
         "--target", "2", "--neighbors", "4,0,1", "--r", "9", "--surrogates", "20",
         "--seed", "4"],
        "3ff9ffa32237cd2e2d2c77e957166b8cfaa4971099bc28f89d62f46cc38a8682",
        "6f5c5f8f9ba9c11558560a13b06c0c534730897d1c5b641db6b5f11976b5f979"),
    "benchmark-utility": (
        # 10,000 records x 7: one full block and a partial one per column
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv", "--epsilons", "1,3",
         "--r", "7", "--seed", "2"],
        "c4bf29a68e1fb55b1bb493241d43a027d44e77a58150103b05f81c050bfd13d5",
        "45fef954edf50c0e20e653c8d00b4ca7b501726a621aa8be89d7e959d81ae40a"),
    "benchmark-analyzers-bound": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "0.5,2"],
        "f0edaca3f2f2562adf7ee9323329ed1c3ad73b64f7a67d86fec4e42e70e91448",
        "923e19dbe2903180bbb26d42d13cd8976b30d6212c351cc626a27361a11bd323"),
    "benchmark-analyzers-exact-oue": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1",
         "--reference", "exact-oue"],
        "bf43a28a9e1f480e8c529ddd01e68670b221a24686ab781be9eafcb3d089af26",
        "ff9e877249be12f1dd7b04d7cdeffaf585ad00ea1be26a0a6978ac1ff99078df"),
    "analyze-matrix-bound": (
        # 20 ordered pairs: tcpl_nats is a pairwise (np.sum) total, not a running one
        ["analyze", "matrix", "--data", "fx/mixed_five.csv", "--epsilon", "2", "--delta", "0.1"],
        "232762e62c2a71cf4ff92dd254ecd3d985ece897aa9fcd37dda08400cb4f21ed",
        "e9b434cb8cc320fcf6efc5895e183b4f86f906f9e756bd7003ab9215ce934760"),
    "analyze-matrix-exact-oue": (
        ["analyze", "matrix", "--data", "fx/mixed_five.csv", "--epsilon", "1",
         "--mechanism", "oue"],
        "506f24fb78ec2146c8ff92c4721ec65b384a4db89662769c63556e961f257484",
        "3c492de1e176a0b57c59f146a3ecc898b2f170e8319f9537b53775e7edbbc5a9"),
    "calibrate-bound": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1"],
        "d47cde9fd820be686cb3a3bbfe0ea65dc7290258895e005e6ef6e598ef937244",
        "7150c091b01f20f1ac64379b9f6efb4d0ab19e01955cabab7556edbb0c8683a6"),
    "calibrate-exact-grr": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1",
         "--engine", "exact-grr"],
        "43faada6701cf546ecbbbe5565fd662b675e54f81664c3a39f9b612fe178b721",
        "e395b055e817f5639865df44970e80ba821910c9b770e4d7db632209fdaa616e"),
    # 829 probes each: the walk crosses many chunk boundaries
    "calibrate-long-bound": (
        ["calibrate", "--data", "fx/weak_ten.csv", "--budget", "10", "--step", "0.01",
         "--engine", "bound"],
        "e9300ac5f975a56c7ba79fa2935a9d5840e4aed716087c9a82bdb169a6be760e",
        "9135ae8ceb46d51ccd9a19a503c0ac26b5e83c480eb802d96635c56a571e5a76"),
    "calibrate-long-exact-grr": (
        ["calibrate", "--data", "fx/weak_ten.csv", "--budget", "10", "--step", "0.01",
         "--engine", "exact-grr"],
        "3d948ea31dd9eb2f3f01d1a28f5c0ea0c0ef81dfd2fe80ca9864f203680a19eb",
        "e0cdca43cc609cf29fe04cbba1a7c69ff6b910bca2aef4a463b958c9d0d924f3"),
    # witness (output 3, x 2, x' 1): not the first output or the first usable rows
    "analyze-exact-olh": (
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "olh", "--epsilon", "1.5"],
        "9b44e9a30a3e3d7629f8131b2d56b64eb568a668b0e04ea2c41e8e7153925935",
        "30457f26abc4c5aa9ac49aaa63f430f18991c1c1a887729f52cbe1d78b212543"),
    # every ratio is 1: the fallback witness (0, first usable row, second)
    "analyze-exact-zero-budget": (
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "grr", "--epsilon", "0"],
        "f3d8634ba6b58f1e5dc17e7aeb09fcaf9441de7f98ee29ad938984c2ac37ff96",
        "ee7b73b51b0d0c67fffb024eaf0465a4c43c14f1cc466f8e03339be32bc6b477"),
    "analyze-bound": (
        ["analyze", "bound", "--cond", "cond.json", "--epsilon", "2", "--delta", "0.1"],
        "89ed01d134f61eeb05166b2f62361b5529784e7646a85bbbe753f896aa5952f9",
        "fb039b24969218bd4c421aedd22645c652f52d3cf0da74ac8fb1e0595fa965e4"),
    # the target in its own tuple: the statistical total leakage
    "estimate-total-grr": (
        ["estimate", "--data", "fx/mixed_five.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "3", "--neighbors", "3,4", "--r", "3", "--surrogates", "20", "--seed", "5"],
        "ff6a4a293c56c7434e66623f7b42c9a694ebc3d0d6239a6803254360af788640",
        "464e28014307d7d49476eca090d8e61bff54f1d7ebe3e09189f395a81fe3968a"),
    "calibrate-exact-olh": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1",
         "--engine", "exact-olh"],
        "8660e24ba0dcec5b677787b4bf9632313fef5d1469da8a4ac92f1786ee19fb81",
        "f69299732ac1ae8995a1270c6a69b79c17cbf277936ec63e32b1a245462ddac9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_and_digest_pinned(capsys, monkeypatch, fixture_dir, name):
    argv, result_sha, config_digest = GOLDEN[name]
    monkeypatch.chdir(fixture_dir)
    assert main(argv) == 0
    envelope = json.loads(capsys.readouterr().out)
    blob = json.dumps(envelope["result"], sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == result_sha
    assert envelope["manifest"]["config_digest"] == config_digest
