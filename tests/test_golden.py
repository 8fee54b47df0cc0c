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


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["fixtures", "generate", "--out-dir", str(root / "fx"), "--seed", "1",
                 "--samples", SAMPLES, "--out", str(root / "manifest.json")]) == 0
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
    "calibrate-bound": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1"],
        "d47cde9fd820be686cb3a3bbfe0ea65dc7290258895e005e6ef6e598ef937244",
        "7150c091b01f20f1ac64379b9f6efb4d0ab19e01955cabab7556edbb0c8683a6"),
    "calibrate-exact-grr": (
        ["calibrate", "--data", "fx/mixed_five.csv", "--budget", "5", "--step", "0.1",
         "--engine", "exact-grr"],
        "43faada6701cf546ecbbbe5565fd662b675e54f81664c3a39f9b612fe178b721",
        "e395b055e817f5639865df44970e80ba821910c9b770e4d7db632209fdaa616e"),
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
