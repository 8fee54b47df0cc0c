"""Golden outputs: small CLI runs whose ``result`` and ``config_digest`` are
pinned by digest, so that a refactor meant to keep every number is checked
bit for bit rather than within a tolerance.

A digest is the sha256 of the ``result`` object as sorted-key JSON. Floats
print as their shortest round-trip repr, so equal digests mean equal bits.
A second digest pins the whole stdout text, with the wall time masked, so a
change in how the envelope is written shows too. The utility goldens
also pin each mechanism's rows, so a change names the kinds it moved. A
change that moves a result on purpose updates its digests here and says so.
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
        "c9babd5df063c75f07c75a4a246dfa40d5059d9df05f9faceaeacebb79e0a9ee",
        "6f5c5f8f9ba9c11558560a13b06c0c534730897d1c5b641db6b5f11976b5f979",
        "a4c4d0418981f4f4b8cc9b693ae8af2d0bdf6d6a86e43fdf7adff21f2da3e974"),
    # ss at omega 1 over 80,000 rows: decoding takes the one member, no draw
    "estimate-ss": (
        ["estimate", "--data", "fx/mixed_five.csv", "--mechanism", "ss", "--epsilon", "1",
         "--target", "0", "--neighbors", "1,2", "--r", "16", "--surrogates", "20", "--seed", "7"],
        "438d34c0eeccaa3191a21e22cb239a9e54a606ca045b2ec1b3609a4ec7ce600f",
        "a10e9409510311bb3713b90234a29a59c50649fc208ff382363e325d6d19a5f0",
        "21cd38f470c502d1172a26dc2dc3fcf3e46481ae121080781b927d7e0a200f08"),
    "benchmark-utility": (
        # 10,000 records x 7: one full block and a partial one per column
        ["benchmark", "utility", "--data", "fx/noisy_copy.csv", "--epsilons", "1,3",
         "--r", "7", "--seed", "2"],
        "2fcea0b4d09f0ccb4b11f5baf2a988ce37a1522179058fc59f96cf77ab61a096",
        "45fef954edf50c0e20e653c8d00b4ca7b501726a621aa8be89d7e959d81ae40a",
        "1b6ca104b142ff89b1483b27ce47f67b7553d4b8e5a6b4725e27b0f333196ed9"),
    # every kind on alphabets 9, 12 and 33, 3000 records x 23: one full block
    # and a partial one per column. At eps 0.5 ss takes its argpartition
    # branch (omega 3, 4 and 12), and olh hashes to g 3 and 8, below k.
    "benchmark-utility-wide": (
        ["benchmark", "utility", "--data", "wide.csv", "--epsilons", "0.5,2", "--r", "23",
         "--seed", "6"],
        "0ae0384c6eafc522bffcc644cf389256e389571ffee68d140c7b8576a1050928",
        "cf4ab3d45f6e4a7c601d918905d8433ba4eac19809aa13dadadd80bf11e7ef41",
        "bb625c56dc55e0bb6d505412b31877207df200e142cec3266310ff1ce6c31c89"),
    "benchmark-analyzers-bound": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "0.5,2"],
        "797b41a289a861ddc24058bdf47b0d675ac07be1651c3a8467e9dd87374712c7",
        "923e19dbe2903180bbb26d42d13cd8976b30d6212c351cc626a27361a11bd323",
        "24ed1a423a6f387ec4b7028889f4a5a7490e76ddcd6d6a40b6290ca07f764cff"),
    "benchmark-analyzers-exact-oue": (
        ["benchmark", "analyzers", "--data", "fx/mixed_five.csv", "--epsilons", "1",
         "--reference", "exact-oue"],
        "2f8eedf7ab1cf3389685d9b75b9f41fb9110aa8e05f69f5327be0e3a29b9a4c0",
        "ff9e877249be12f1dd7b04d7cdeffaf585ad00ea1be26a0a6978ac1ff99078df",
        "d1c6de9ab65a9c9c2aece685f802b1b070526c5c3f7f4ffa650a85d63c95fdf8"),
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
        "a39c4e70c76f1f4b4a6fb57b0985855fbcef15830690d0dfc4b7107422f944f7",
        "e395b055e817f5639865df44970e80ba821910c9b770e4d7db632209fdaa616e",
        "4bda1f3009108b80cfa34755d1f9f216d97dcb8bc9d401ee1c3a887489041129"),
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
        "a6a4d553ff048e5bd4d1a0326146b4c50f4a0620a06801d07598d24d8aa89dd5",
        "e0cdca43cc609cf29fe04cbba1a7c69ff6b910bca2aef4a463b958c9d0d924f3",
        "7c00184d83f8dfc4a294e96ee06a24a8eec1a827db2ced2b53e8f09b3aee30f5"),
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
        "02c1b05407d9e50358f920a0c30e2f2fe5d08f3532084315a1733657a61ade67",
        "f69299732ac1ae8995a1270c6a69b79c17cbf277936ec63e32b1a245462ddac9",
        "98d64b1c843530a790351f8b3ebca129a19f83d6e17c362f6b4e294871abb298"),
}


# sha256 of each mechanism's rows of a utility golden, as sorted-key JSON,
# so that a change to the draws names the kinds whose rows it moved.
KIND_DIGESTS = {
    "benchmark-utility": {
        "grr": "386fbaaaae809c45303389d47d70e2dd058b52458560a3306be8554595cc8b61",
        "exp": "7209ded10fbe45c7d85dc3a7db5e5851e09b7dc89296cda575a4defc0f7217fe",
        "rappor": "361385632ef11953d8cba374ebab4b61f4c816d27be53d19d5a9b62599e12da6",
        "oue": "c1c98c7f316a624204ae5e0235970262cc2d97738db190df30e43f76640f7f26",
        "blh": "932dfcd00cc9b68759cf99be98fcd924334e841581c8322d7d766bb587e3d1c5",
        "olh": "0f7751c00d685ab2d62e0a340cae877e841a2fce1788f3702a9124156fe9bd8c",
        "she": "e1b183f87cad4283b78a37a6844ae92cbfc558f4c149945a736065379d3129f9",
        "ss": "bb9edad3267bba84675a65a50d220477ebd3c93be6bbc9b231374aa4d13f12ce",
    },
    "benchmark-utility-wide": {
        "grr": "60d975cf423904e171cda13cb421831cdce0c8b0158eb8e298a7fb8cb12ddedf",
        "exp": "5b895eaf449f8276f996165f0729e53f7bddedcc9d95b24dd89e7dfb5697da99",
        "rappor": "a806f4729c3df1c259d389765a92cb65759465fb1e53c58a3dce8b472999e5e3",
        "oue": "e66947a1bbd403418e2a61e672cb40b9dbc5a2e200e6717a714cf69f9649460b",
        "blh": "fa6af9525a06e003dd23d7b4fcea986901af6d94f8cf3b83af6c504787781c2b",
        "olh": "5ecd4e682e3b6a64ff301613a59ec22a6faf41d43dc2383e2bac25bbd2e5c476",
        "she": "2126f1452c46c03cd8689f0d897dcad74c805960f1cc8f386edb395ea7774e5c",
        "ss": "bfa6a4bf47d11674b453813045acdd1c6122fba20768be8a6f9b17e4e97ae4ae",
    },
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_and_digest_pinned(capsys, monkeypatch, fixture_dir, name):
    argv, result_sha, config_digest, text_sha = GOLDEN[name]
    monkeypatch.chdir(fixture_dir)
    assert main(argv) == 0
    out = capsys.readouterr().out
    envelope = json.loads(out)
    if name in KIND_DIGESTS:
        rows = envelope["result"]["rows"]
        moved = [kind for kind, sha in KIND_DIGESTS[name].items()
                 if digest([row for row in rows if row["mechanism"] == kind]) != sha]
        assert moved == []
    assert digest(envelope["result"]) == result_sha
    assert envelope["manifest"]["config_digest"] == config_digest
    text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', out)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == text_sha
