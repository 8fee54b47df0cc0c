"""Command-line interface.

Subcommands: ``analyze {matrix,exact,bound}``, ``estimate``, ``benchmark
{analyzers,utility}``, ``calibrate`` and ``fixtures generate``. Every run
emits a JSON envelope with a manifest (command line, seed, config digest,
version, wall time); identical flags and seed reproduce byte-identical
results apart from the wall-time field. Only ``estimate``, ``benchmark
utility`` and ``fixtures generate`` draw randomness and take ``--seed``; the
others have no seed, and their manifest's is null. The config digest leaves
out arguments that cannot change a result, such as ``--out``. Leakage values
are reported in nats and declared as such in the ``units`` block; ``--bits``
adds a converted display field. Output is strict JSON: no result value can
be infinite or NaN, and the writer refuses one.

Exit codes: 0 success, 2 usage or input error, or an output that cannot be
written, such as a stdout closed early (machine-readable JSON on stderr), 3
numerical infeasibility.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

# Only modules that importing the package loads anyway are imported here;
# each handler imports the rest of what it runs, so a command loads no module
# it does not run.
from . import __version__
from .cpl_bound import BudgetParams, cpl_bound
from .cpl_exact import EXACT_ENGINES, cpl_exact
from .data_model import (
    empirical_joint, load_conditional_json, load_csv, pairwise_conditionals,
)
from .errors import CplKitError, InfeasibleBudgetError, InputError
from .mechanisms import KINDS, MechanismSpec, transition_matrix

_LN2 = math.log(2.0)


def _number_list(text: str, parse, what: str) -> list:
    """Comma-separated entries, each parsed by ``parse``; blank entries are
    skipped, and a bad entry or an empty list is an ``InputError``."""
    try:
        values = [parse(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise InputError(f"{what} must list at least one entry")
    return values


def _float_list(text: str) -> list[float]:
    return _number_list(text, float, "number list")


#: Arguments that cannot change a result, left out of the config digest.
_NON_SEMANTIC_ARGS = ("func", "out", "_argv")


def _config_digest(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _NON_SEMANTIC_ARGS}
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _emit(args: argparse.Namespace, result: dict, started: float) -> None:
    envelope = {
        "manifest": {
            "command": " ".join(args._argv),
            "seed": getattr(args, "seed", None),
            "config_digest": _config_digest(args),
            "version": __version__,
            "wall_time_s": round(time.perf_counter() - started, 6),
        },
        "units": {"leakage": "nats", "entropy": "nats"},
        "result": result,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _with_bits(obj: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "bits", False) and "leakage_nats" in obj:
        obj["leakage_bits"] = obj["leakage_nats"] / _LN2
    return obj


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def _cmd_analyze_matrix(args) -> dict:
    from .correlation_metrics import metrics

    budget = BudgetParams(args.epsilon, args.delta)
    if args.mechanism and args.delta != 0:
        raise InputError("--delta applies to the bound only; the exact engine "
                         "(--mechanism) reads epsilon alone")
    d = load_csv(args.data)
    conds = pairwise_conditionals(d)
    n = d.n_attributes
    entries = []
    for (i, j), cond in conds.items():
        if args.mechanism:
            spec = MechanismSpec(args.mechanism, args.epsilon, cond.n_cols)
            res = cpl_exact(cond, transition_matrix(spec))
            entry = {"target": i, "neighbor": j, "leakage_nats": res.leakage,
                     "infinite": res.is_infinite}
        else:
            res = cpl_bound(cond, budget)
            entry = {"target": i, "neighbor": j, "leakage_nats": res.leakage,
                     "relaxation": res.relaxation}
        entries.append(_with_bits(entry, args))
    metric_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            rep = metrics(empirical_joint(d, i, j))
            metric_rows.append({
                "i": i, "j": j, "mi_nats": rep.mi, "nmi": rep.nmi,
                "pcc": None if math.isnan(rep.pcc) else rep.pcc,
                "h_a_nats": rep.h_a, "h_b_nats": rep.h_b, "h_joint_nats": rep.h_joint,
            })
    return {
        "attributes": list(d.attribute_names),
        "epsilon": args.epsilon,
        "delta": args.delta,
        "engine": f"exact-{args.mechanism}" if args.mechanism else "bound",
        "entries": entries,
        # np.sum's pairwise order, not a running sum, over the row-major (i, j)
        # entries: the last bits of the total depend on it
        "tcpl_nats": float(np.sum([e["leakage_nats"] for e in entries])),
        "metrics": metric_rows,
    }


def _cmd_analyze_exact(args) -> dict:
    cond = load_conditional_json(args.cond)
    spec = MechanismSpec(args.mechanism, args.epsilon, cond.n_cols)
    res = cpl_exact(cond, transition_matrix(spec))
    keys, infinite = ("output", "x", "x_prime"), res.infinite_witness
    out = {
        "leakage_nats": res.leakage,
        "witness": dict(zip(keys, res.witness)),
        "infinite_witness": None if infinite is None else dict(zip(keys, infinite)),
    }
    return _with_bits(out, args)


def _cmd_analyze_bound(args) -> dict:
    cond = load_conditional_json(args.cond)
    res = cpl_bound(cond, BudgetParams(args.epsilon, args.delta))
    out = {
        "leakage_nats": res.leakage,
        "relaxation": res.relaxation,
        "subset": list(res.subset),
        "A": res.a_mass,
        "B": res.b_mass,
        "witness_pair": list(res.witness_pair),
    }
    return _with_bits(out, args)


def _cmd_estimate(args) -> dict:
    from .statistical import EstimationConfig, estimate_cpl

    d = load_csv(args.data)
    cfg = EstimationConfig(expansion=args.r, surrogates=args.surrogates,
                           alpha=args.alpha, seed=args.seed)
    neighbors = _number_list(args.neighbors, int, "integer list")
    # Only the tuple's members are perturbed; estimate_cpl rejects the indices left out.
    specs = {z: MechanismSpec(args.mechanism, args.epsilon, d.alphabet(z).size)
             for z in neighbors if 0 <= z < d.n_attributes}
    res = estimate_cpl(d, specs, args.target, neighbors, cfg)
    return _with_bits({
        "target": args.target,
        "neighbors": neighbors,
        "mechanism": args.mechanism,
        "epsilon": args.epsilon,
        "leakage_nats": res.leakage,
        "p_value": res.p_value,
        "significant": res.significant,
        "excluded_cells": res.excluded_cells,
    }, args)


def _cmd_benchmark_analyzers(args) -> dict:
    from .benchmarks import analyzer_benchmark

    d = load_csv(args.data)
    epsilons = _float_list(args.epsilons)
    runs = analyzer_benchmark(d, epsilons, thresholds=tuple(_float_list(args.thresholds)),
                              reference=args.reference)
    return {"runs": [{
        "epsilon": eps,
        "reference": args.reference,
        "points": {name: {"undershoot": p.undershoot, "overshoot": p.overshoot,
                          "region": p.region} for name, p in sorted(points.items())},
    } for eps, points in zip(epsilons, runs)]}


def _cmd_benchmark_utility(args) -> dict:
    from .benchmarks import utility_benchmark

    d = load_csv(args.data)
    rows = utility_benchmark(d, _number_list(args.mechanisms, str, "mechanism list"),
                             _float_list(args.epsilons), args.r, args.seed)
    return {"rows": [{
        "mechanism": r.mechanism, "epsilon": r.epsilon,
        "freq_nmse": r.report.freq_nmse, "zero_one_error": r.report.zero_one_error,
        "norm_tcpl": r.report.norm_tcpl,
    } for r in rows]}


def _cmd_calibrate(args) -> dict:
    from .calibration import calibrate

    d = load_csv(args.data)
    res = calibrate(pairwise_conditionals(d), args.budget, step=args.step, engine=args.engine)
    return {
        "epsilon_star": res.epsilon_star,
        "worst_attribute": res.worst_attribute,
        "worst_tpl_nats": res.worst_tpl,
        "iterations": res.iterations,
        "trace": [{"epsilon": e, "worst_tpl_nats": w} for e, w in res.trace],
    }


def _samples(text: str) -> dict[str, int]:
    """``name=count`` overrides, comma-separated, of fixture sample counts."""
    from .fixtures import FIXTURES

    samples = {}
    for part in text.split(","):
        name, _, count = part.partition("=")
        if name not in FIXTURES:
            raise InputError(f"unknown fixture {name!r} in --samples, expected one of "
                             f"{sorted(FIXTURES)}")
        try:
            samples[name] = int(count)
        except ValueError:
            raise InputError(f"--samples {name} needs an integer count, got {count!r}") from None
        if samples[name] < 1:
            raise InputError(f"--samples {name} count must be at least 1, got {samples[name]}")
    return samples


def _cmd_fixtures_generate(args) -> dict:
    from .fixtures import generate_fixtures

    samples = _samples(args.samples) if args.samples else {}
    return generate_fixtures(args.out_dir, seed=args.seed, samples=samples)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_seed(p: argparse.ArgumentParser) -> None:
    # argparse parses a string default with ``type`` only when --seed is not
    # given, so a bad CPL_KIT_SEED is a usage error of the seeded commands alone.
    p.add_argument("--seed", type=int, default=os.environ.get("CPL_KIT_SEED") or "0",
                   help="root seed for all randomness (env CPL_KIT_SEED)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpl-kit",
                                     description="Correlation-induced privacy leakage toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="leakage analysis from tables")
    asub = analyze.add_subparsers(dest="analyze_command", required=True)

    p = asub.add_parser("matrix", help="full pairwise leakage matrix for a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--mechanism", choices=KINDS, default=None,
                   help="use exact leakage through the mechanism's decoded channel "
                        "instead of the bound")
    p.add_argument("--bits", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_matrix)

    p = asub.add_parser("exact", help="exact leakage for one conditional table")
    p.add_argument("--cond", required=True, help="conditional table JSON")
    p.add_argument("--mechanism", choices=KINDS, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--bits", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_exact)

    p = asub.add_parser("bound", help="budget-only leakage bound for one conditional table")
    p.add_argument("--cond", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--bits", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_bound)

    p = sub.add_parser("estimate", help="statistical leakage estimate from perturbed data")
    p.add_argument("--data", required=True)
    p.add_argument("--mechanism", choices=KINDS, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--neighbors", required=True,
                   help="comma-separated attribute indices; with --target among them, "
                        "the total leakage")
    p.add_argument("--r", type=int, default=50, help="record replication factor")
    p.add_argument("--surrogates", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bits", action="store_true")
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_estimate)

    bench = sub.add_parser("benchmark", help="analyzer and utility benchmarks")
    bsub = bench.add_subparsers(dest="benchmark_command", required=True)

    p = bsub.add_parser("analyzers", help="undershoot/overshoot of leakage analyzers")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilons", default="1")
    p.add_argument("--thresholds", default="0.2,0.4")
    p.add_argument("--reference", default="bound", choices=("bound", *EXACT_ENGINES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_benchmark_analyzers)

    p = bsub.add_parser("utility", help="utility error vs normalized total leakage")
    p.add_argument("--data", required=True)
    p.add_argument("--mechanisms", default=",".join(KINDS))
    p.add_argument("--epsilons", default="1,3,5")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_benchmark_utility)

    p = sub.add_parser("calibrate", help="correlation-aware uniform budget calibration")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--engine", default="bound", choices=("bound", *EXACT_ENGINES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)

    fixtures = sub.add_parser("fixtures", help="bundled synthetic datasets")
    fsub = fixtures.add_subparsers(dest="fixtures_command", required=True)
    p = fsub.add_parser("generate", help="write fixture CSVs and a manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--samples", default=None, help="overrides, e.g. maxleak_pair=10000")
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_fixtures_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["cpl-kit", *argv]
    started = time.perf_counter()
    try:
        _emit(args, args.func(args), started)
    except (CplKitError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader of stdout has gone: point stdout at the null device,
            # so that its flush at exit fails on no closed pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 3 if isinstance(exc, InfeasibleBudgetError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
