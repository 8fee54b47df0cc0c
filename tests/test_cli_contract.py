"""The CLI contract, checked by a fixed sweep of odd values.

Every command runs in process against each value of ``ODD`` at each of its
number flags, and against a few odd lists at its list flags. Mechanism kinds
and engines are cycled, so that each one meets each value of the flag that
sets the budget. A run must end in one of two ways: exit 0 with strict JSON
on stdout (no NaN or Infinity) and nothing on stderr, or exit 2 or 3 with
nothing on stdout and one JSON ``{"error": ...}`` line on stderr. argparse's
own usage exit is allowed only for a value that the flag's type cannot parse.
NumPy warnings are raised as errors, so a run that computes through an
overflow fails even when its output looks finite.
"""
import json

import pytest

from cpl_kit.cli import main
from cpl_kit.cpl_exact import EXACT_ENGINES
from cpl_kit.fixtures import FIXTURES, MAXLEAK_JOINT
from cpl_kit.data_model import JointDistribution, conditional_from_joint
from cpl_kit.mechanisms import KINDS
from conftest import reject_constant

ODD = ["nan", "inf", "-0", "0", "1e-320", "1e-307", "1e-290", "709.08", "709.09", "709.1",
       "40", "44", "700"]
ODD_LISTS = ["", ",", "1,,3", "1,nan", "0,1e-307", "inf,1", "-1,2", "1;2", "0x1p3"]
ENGINES = ("bound", *EXACT_ENGINES)
SAMPLES = ",".join(f"{name}=60" for name in FIXTURES)


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    assert main(["fixtures", "generate", "--out-dir", str(root), "--seed", "3",
                 "--samples", SAMPLES, "--out", str(root / "generated.json")]) == 0
    labels = tuple(f"s{i}" for i in range(len(MAXLEAK_JOINT)))
    cond = conditional_from_joint(JointDistribution(labels, labels, MAXLEAK_JOINT))
    (root / "cond.json").write_text(json.dumps(cond.to_json()), encoding="utf-8")
    return root


def commands(root):
    """{command: (base argv, the argv pieces cycled into it, {flag: (type,
    values)})}."""
    pair, noisy = (str(root / f"{name}.csv") for name in ("maxleak_pair", "noisy_copy"))
    cond = str(root / "cond.json")
    kinds = [["--mechanism", kind] for kind in KINDS]
    return {
        "analyze-matrix": (["analyze", "matrix", "--data", pair, "--epsilon", "1"],
                           [[], *kinds],
                           {"--epsilon": (float, ODD), "--delta": (float, ODD)}),
        "analyze-exact": (["analyze", "exact", "--cond", cond, "--epsilon", "1"], kinds,
                          {"--epsilon": (float, ODD)}),
        "analyze-bound": (["analyze", "bound", "--cond", cond, "--epsilon", "1"], [[]],
                          {"--epsilon": (float, ODD), "--delta": (float, ODD)}),
        "estimate": (["estimate", "--data", pair, "--epsilon", "1", "--target", "0",
                      "--neighbors", "1", "--r", "1", "--surrogates", "9"], kinds,
                     {"--epsilon": (float, ODD), "--alpha": (float, ODD), "--r": (int, ODD),
                      "--surrogates": (int, ODD), "--target": (int, ODD),
                      "--seed": (int, ODD),
                      "--neighbors": (str, [*ODD_LISTS, "0,1", "1,1", "0", "2"])}),
        "benchmark-analyzers": (["benchmark", "analyzers", "--data", pair],
                                [["--reference", engine] for engine in ENGINES],
                                {"--epsilons": (str, ODD + ODD_LISTS),
                                 "--thresholds": (str, ODD + ODD_LISTS)}),
        "benchmark-utility": (["benchmark", "utility", "--data", noisy, "--epsilons", "1"],
                              [["--mechanisms", kind] for kind in KINDS],
                              {"--epsilons": (str, ODD + ODD_LISTS), "--r": (int, ODD),
                               "--seed": (int, ODD),
                               "--mechanisms": (str, [*ODD_LISTS, "she,she", "nope"])}),
        "calibrate": (["calibrate", "--data", pair, "--budget", "2", "--step", "0.5"],
                      [["--engine", engine] for engine in ENGINES],
                      {"--budget": (float, ODD), "--step": (float, ODD)}),
        "fixtures-generate": (["fixtures", "generate", "--out-dir", str(root / "gen"),
                               "--samples", SAMPLES, "--seed", "1"], [[]],
                              {"--seed": (int, ODD),
                               "--samples": (str, [f"noisy_copy={v}" for v in ODD])}),
    }


def cases(base, cycled, flags):
    """(type, value, argv) of each flag's values in turn. The first flag's
    values meet every cycled piece; the other flags' values take them in
    turn."""
    for index, (flag, (parse, values)) in enumerate(flags.items()):
        for i, value in enumerate(values):
            for piece in cycled if index == 0 else [cycled[i % len(cycled)]]:
                argv = [*base, *piece]
                if flag in argv:
                    at = argv.index(flag)
                    del argv[at:at + 2]
                # one token, so that argparse cannot take a value such as
                # "-1,2" for an option
                yield parse, value, [*argv, f"{flag}={value}"]


def parses(parse, value) -> bool:
    try:
        parse(value)
    except ValueError:
        return False
    return True


def breach(capsys, parse, value, argv) -> str | None:
    """How one run breaks the contract, or None."""
    try:
        code = main(argv)
    except SystemExit as exc:
        capsys.readouterr()
        if exc.code == 2 and not parses(parse, value):
            return None
        return f"usage exit {exc.code} on a value its flag parses"
    except Exception as exc:  # the contract allows no other way out
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code == 0:
        try:
            envelope = json.loads(out, parse_constant=reject_constant)
        except ValueError as exc:
            return f"exit 0 with output that is not strict JSON: {exc}"
        if "result" not in envelope or err:
            return f"exit 0 with keys {sorted(envelope)} and stderr {err[:200]!r}"
        return None
    lines = err.splitlines()
    if code not in (2, 3) or out or len(lines) != 1 or not err.endswith("\n"):
        return f"exit {code}, stdout {out[:80]!r}, stderr {err[:200]!r}"
    error = json.loads(lines[0], parse_constant=reject_constant)
    if list(error) != ["error"] or set(error["error"]) != {"type", "message"}:
        return f"exit {code} with error line {lines[0]!r}"
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze-matrix", "analyze-exact", "analyze-bound",
                                     "estimate", "benchmark-analyzers", "benchmark-utility",
                                     "calibrate", "fixtures-generate"])
def test_every_run_keeps_the_contract(capsys, files, command):
    breaches = [f"{' '.join(argv)}: {why}"
                for parse, value, argv in cases(*commands(files)[command])
                if (why := breach(capsys, parse, value, argv))]
    assert not breaches, "\n".join(breaches)


def test_the_sweep_meets_every_kind_and_engine_at_every_value(files):
    table = commands(files)
    for command, name in [("analyze-exact", "--mechanism"), ("estimate", "--mechanism"),
                          ("benchmark-utility", "--mechanisms"), ("calibrate", "--engine")]:
        met = {(argv[argv.index(name) + 1], value)
               for _, value, argv in cases(*table[command]) if name in argv}
        choices = KINDS if name != "--engine" else ENGINES
        assert {(c, v) for c in choices for v in ODD} <= met, command
