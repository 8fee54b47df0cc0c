"""Golden outputs: small CLI runs whose ``result`` and ``config_digest`` are
pinned by digest, so that a refactor meant to keep every number is checked
bit for bit rather than within a tolerance.

A digest is the sha256 of the ``result`` object as sorted-key JSON. Floats
print as their shortest round-trip repr, so equal digests mean equal bits.
A second digest pins the whole stdout text, with the wall time masked, so a
change in how the envelope is written shows too. A change that moves a
result on purpose updates its digests here and says so.
"""
import hashlib
import json
import re

import numpy as np
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


def wide_csv() -> str:
    """3000 seeded records over alphabets 9, 12 and 33, the second correlated
    with the first. The first 33 records cycle through every symbol, so each
    alphabet is complete."""
    rng = np.random.default_rng(11)
    n, sizes = 3000, (9, 12, 33)
    a = np.concatenate([np.arange(33) % 9, rng.integers(0, 9, n - 33)])
    b = np.concatenate([np.arange(33) % 12, (a[33:] + rng.integers(0, 4, n - 33)) % 12])
    c = np.concatenate([np.arange(33), rng.integers(0, 33, n - 33)])
    lines = ["a,b,c"] + [f"a{x},b{y},c{z}" for x, y, z in zip(a, b, c)]
    assert [len(set(col)) for col in (a, b, c)] == list(sizes)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["fixtures", "generate", "--out-dir", str(root / "fx"), "--seed", "1",
                 "--samples", SAMPLES, "--out", str(root / "manifest.json")]) == 0
    (root / "cond.json").write_text(json.dumps(COND), encoding="utf-8")
    (root / "wide.csv").write_text(wide_csv(), encoding="utf-8")
    return root


# (argv, sha256 of the sorted-key result JSON, config_digest, sha256 of the
# stdout text with its wall time masked); the data paths are relative to the
# fixture directory, so the config digest and the command line are stable too.
GOLDEN = {
    "estimate-grr": (
        ["estimate", "--data", "fx/maxleak_pair.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "0", "--neighbors", "1", "--r", "4", "--surrogates", "20", "--seed", "3"],
        "d6c4a2d259bef9cc1f2ef1061b8bb1412d4fbc9ae972464f300276d7b41bfbd1",
        "715de061e89f8a8f9267efc47bdbcf566931a4dfbe57c93e1261fce69b64db63",
        "11f0c2037a982c4cbf7d098366ddca94402826d283d21be0b0a5f8cfa550e2b3"),
    "estimate-olh": (
        ["estimate", "--data", "fx/latent_five.csv", "--mechanism", "olh", "--epsilon", "2",
         "--target", "2", "--neighbors", "4,0,1", "--r", "9", "--surrogates", "20",
         "--seed", "4"],
        "3ff9ffa32237cd2e2d2c77e957166b8cfaa4971099bc28f89d62f46cc38a8682",
        "6f5c5f8f9ba9c11558560a13b06c0c534730897d1c5b641db6b5f11976b5f979",
        "c0b35b707d8dd505569e888a474911de1a785715fbdba28c85a6ed7aad253026"),
    "benchmark-utility": (
        # 10,000 records x 7: one full block and a partial one per column
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv", "--epsilons", "1,3",
         "--r", "7", "--seed", "2"],
        "c4bf29a68e1fb55b1bb493241d43a027d44e77a58150103b05f81c050bfd13d5",
        "45fef954edf50c0e20e653c8d00b4ca7b501726a621aa8be89d7e959d81ae40a",
        "b5fe42f05192869b06db5c61095a8afa07636304f339af5440b42f371877fd22"),
    # every kind on alphabets 9, 12 and 33, 3000 records x 23: one full block
    # and a partial one per column. At eps 0.5 ss takes its argpartition
    # branch (omega 3, 4 and 12), and olh hashes to g 3 and 8, below k.
    "benchmark-utility-wide": (
        ["benchmark", "utility", "--data", "wide.csv", "--epsilons", "0.5,2", "--r", "23",
         "--seed", "6"],
        "76d3162f817799f532a6922ecb6508f57652c35d53d5aff159b02cbc6eed5313",
        "cf4ab3d45f6e4a7c601d918905d8433ba4eac19809aa13dadadd80bf11e7ef41",
        "9134c5156df02dd8d8a58f1d56690719227f2d0a9dd4254feecea45bc636c1bf"),
    "benchmark-analyzers-bound": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "0.5,2"],
        "f0edaca3f2f2562adf7ee9323329ed1c3ad73b64f7a67d86fec4e42e70e91448",
        "923e19dbe2903180bbb26d42d13cd8976b30d6212c351cc626a27361a11bd323",
        "5f009f2aa041fabbfa4ecdcf8143094b583012c203d37e01e35e938d12e23ad3"),
    "benchmark-analyzers-exact-oue": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1",
         "--reference", "exact-oue"],
        "bf43a28a9e1f480e8c529ddd01e68670b221a24686ab781be9eafcb3d089af26",
        "ff9e877249be12f1dd7b04d7cdeffaf585ad00ea1be26a0a6978ac1ff99078df",
        "efdec3f2298b0295deca4005d24af0d697b7e34ccb5c63d72f441b89b3edd612"),
    "analyze-matrix-bound": (
        # 20 ordered pairs: tcpl_nats is a pairwise (np.sum) total, not a running one
        ["analyze", "matrix", "--data", "fx/mixed_five.csv", "--epsilon", "2", "--delta", "0.1"],
        "232762e62c2a71cf4ff92dd254ecd3d985ece897aa9fcd37dda08400cb4f21ed",
        "e9b434cb8cc320fcf6efc5895e183b4f86f906f9e756bd7003ab9215ce934760",
        "e46191b54c099102c0723ca04a1d5c1b8ea8df66aa36d6abda157ca4140188cc"),
    "analyze-matrix-exact-oue": (
        ["analyze", "matrix", "--data", "fx/mixed_five.csv", "--epsilon", "1",
         "--mechanism", "oue"],
        "506f24fb78ec2146c8ff92c4721ec65b384a4db89662769c63556e961f257484",
        "3c492de1e176a0b57c59f146a3ecc898b2f170e8319f9537b53775e7edbbc5a9",
        "2c6034c1887f3d05e82204daed74c475f57cd20f307e1d4aa038873c9fc50cf3"),
    "calibrate-bound": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1"],
        "d47cde9fd820be686cb3a3bbfe0ea65dc7290258895e005e6ef6e598ef937244",
        "7150c091b01f20f1ac64379b9f6efb4d0ab19e01955cabab7556edbb0c8683a6",
        "30223eba9496d4b41d569d04eb150258fedd20abad1e036d1afefe13584facef"),
    "calibrate-exact-grr": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1",
         "--engine", "exact-grr"],
        "43faada6701cf546ecbbbe5565fd662b675e54f81664c3a39f9b612fe178b721",
        "e395b055e817f5639865df44970e80ba821910c9b770e4d7db632209fdaa616e",
        "6208b93e039bcdf7db3d949ea5739b20e19e84353655f1ffc0aed4a9d8e95ba2"),
    # 829 probes each: the walk crosses many chunk boundaries
    "calibrate-long-bound": (
        ["calibrate", "--data", "fx/weak_ten.csv", "--budget", "10", "--step", "0.01",
         "--engine", "bound"],
        "e9300ac5f975a56c7ba79fa2935a9d5840e4aed716087c9a82bdb169a6be760e",
        "9135ae8ceb46d51ccd9a19a503c0ac26b5e83c480eb802d96635c56a571e5a76",
        "1fdebfefd5f299cf704c741a8003a28f9abc661dfa5f5ff3f0d61ed2fa491c8a"),
    "calibrate-long-exact-grr": (
        ["calibrate", "--data", "fx/weak_ten.csv", "--budget", "10", "--step", "0.01",
         "--engine", "exact-grr"],
        "3d948ea31dd9eb2f3f01d1a28f5c0ea0c0ef81dfd2fe80ca9864f203680a19eb",
        "e0cdca43cc609cf29fe04cbba1a7c69ff6b910bca2aef4a463b958c9d0d924f3",
        "c23ed1b2f004bc230a96995134d997f5f2dbbefaf0e44b6b9a1cf6062cc3c996"),
    # witness (output 3, x 2, x' 1): not the first output or the first usable rows
    "analyze-exact-olh": (
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "olh", "--epsilon", "1.5"],
        "9b44e9a30a3e3d7629f8131b2d56b64eb568a668b0e04ea2c41e8e7153925935",
        "30457f26abc4c5aa9ac49aaa63f430f18991c1c1a887729f52cbe1d78b212543",
        "dc627db24057c604a52b83707e2428df785a43e7680907ed227f0788a5ed1521"),
    # every ratio is 1: the fallback witness (0, first usable row, second)
    "analyze-exact-zero-budget": (
        ["analyze", "exact", "--cond", "cond.json", "--mechanism", "grr", "--epsilon", "0"],
        "f3d8634ba6b58f1e5dc17e7aeb09fcaf9441de7f98ee29ad938984c2ac37ff96",
        "ee7b73b51b0d0c67fffb024eaf0465a4c43c14f1cc466f8e03339be32bc6b477",
        "1ec6aa62945a12ae2e5c32a75edb798fda2c8f5942a07344b4fb71f8b38f8674"),
    "analyze-bound": (
        ["analyze", "bound", "--cond", "cond.json", "--epsilon", "2", "--delta", "0.1"],
        "89ed01d134f61eeb05166b2f62361b5529784e7646a85bbbe753f896aa5952f9",
        "fb039b24969218bd4c421aedd22645c652f52d3cf0da74ac8fb1e0595fa965e4",
        "59553614f58e47f47712ecdb9b3749df60b13d46eae91671dbfb988679ed1cb9"),
    # the target in its own tuple: the statistical total leakage
    "estimate-total-grr": (
        ["estimate", "--data", "fx/mixed_five.csv", "--mechanism", "grr", "--epsilon", "1",
         "--target", "3", "--neighbors", "3,4", "--r", "3", "--surrogates", "20", "--seed", "5"],
        "ff6a4a293c56c7434e66623f7b42c9a694ebc3d0d6239a6803254360af788640",
        "464e28014307d7d49476eca090d8e61bff54f1d7ebe3e09189f395a81fe3968a",
        "daba93e1bb12090cfc62b522fa5267f9139fd03ffc81f46b6f92f092c1b1db7b"),
    "calibrate-exact-olh": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1",
         "--engine", "exact-olh"],
        "8660e24ba0dcec5b677787b4bf9632313fef5d1469da8a4ac92f1786ee19fb81",
        "f69299732ac1ae8995a1270c6a69b79c17cbf277936ec63e32b1a245462ddac9",
        "0fc3d8f57d4aca1d253bcc4d40295610697cbef0119b36db6e690be88fefbede"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_and_digest_pinned(capsys, monkeypatch, fixture_dir, name):
    argv, result_sha, config_digest, text_sha = GOLDEN[name]
    monkeypatch.chdir(fixture_dir)
    assert main(argv) == 0
    out = capsys.readouterr().out
    envelope = json.loads(out)
    blob = json.dumps(envelope["result"], sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == result_sha
    assert envelope["manifest"]["config_digest"] == config_digest
    text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', out)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == text_sha
