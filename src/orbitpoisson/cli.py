"""Command-line driver: orbit classification, bracket solving, and cohomology
reports with machine-readable output.

Commands
    classify TYPE RANK [--gamma 1,2] [--all-gamma] [--seed N]
    solve    TYPE RANK --mode kks|recursion|compatible [options]
    cohomology TYPE RANK --mode kks|recursion|compatible [--max-monomials N] [options]

Scalars use the exact grammar of the library ("1/2", "i", "3-1/4*i").  Output
is a single JSON document (``--format text`` renders tables instead).  Reports
are byte-deterministic for identical inputs; ``--timing`` adds wall-clock
fields and is therefore off by default.  ``cohomology`` counts the
weight-zero monomials before it builds the invariant complex and refuses an
orbit with more than ``--max-monomials`` of them.  Every command refuses a
type with more than 1000 roots (``MAX_ROOTS``; E8 has 240, A31 has 992)
before it builds anything, so a mistyped rank fails at once, and
``classify --all-gamma`` likewise refuses a sweep of more than 1024 of the
2^rank orbits (``MAX_SWEEP_ORBITS``; rank 11 and up).

Exit codes: 0 success, 2 parse or configuration error, 3 mathematical
inconsistency witness, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations

from . import __version__
from .brackets import (
    InternalInvariantError,
    InvariantBivector,
    LinearForm,
    SolverOutcome,
    Witness,
    classify_good,
    kks,
    solve_compatible,
    solve_recursion,
    verify_compatible,
    verify_square,
)
from .chevalley import ChevalleyBasis, build_chevalley_basis
from .invariants import WeylBoundExceeded, betti_numbers, de_rham_betti, weight_zero_counts
from .levi import LeviDatum, build_levi
from .roots import ROOT_COUNTS, RootSystem, build_root_system, validate_type
from .scalars import format_scalar, parse_scalar

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WITNESS = 3
EXIT_INTERNAL = 4

# admits D4 with Gamma = {2} (23968 weight-zero monomials, a few minutes of
# cohomology); the D4 full flag has 79552
MAX_MONOMIALS = 30000

# the Cartan matrix alone is rank^2, so a mistyped rank must not reach it
MAX_ROOTS = 1000

# classify --all-gamma sweeps all 2^rank orbits: 1024 admits rank 10, and
# each further rank doubles the sweep
MAX_SWEEP_ORBITS = 1024


class ConfigError(ValueError):
    pass


def _parse_gamma(text: str | None, rank: int) -> frozenset[int]:
    if text is None or text.strip() == "":
        return frozenset()
    try:
        vals = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad gamma {text!r}: {exc}") from exc
    for v in vals:
        if not 1 <= v <= rank:
            raise ConfigError(f"gamma index {v} out of range 1..{rank}")
    return frozenset(vals)


def _parse_scalar(text: str, what: str):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def _parse_scalars(text: str, what: str) -> list:
    # empty text is the empty list: a point orbit's form has no values
    return [_parse_scalar(x, what) for x in text.split(",")] if text else []


def _quasiroot_label(levi: LeviDatum, q) -> str:
    parts = []
    for coord, pos in zip(q, levi.free_positions):
        if not coord:
            continue
        prefix = "" if coord == 1 else f"{coord}*"
        parts.append(f"{prefix}a{pos}")
    return "+".join(parts) if parts else "0"


def _coefficient_table(b: InvariantBivector) -> list[dict]:
    levi = b.levi
    return [
        {
            "quasiroot": list(q),
            "label": _quasiroot_label(levi, q),
            "value": format_scalar(b.coeffs[q]),
        }
        for q in levi.positive_quasiroots
    ]


def _witness_dict(levi: LeviDatum, w: Witness) -> dict:
    out = {
        "quasiroot": list(w.quasiroot),
        "label": _quasiroot_label(levi, w.quasiroot),
        "pattern": w.pattern,
        "data": [list(q) for q in w.data],
    }
    if w.alternate is not None:
        out["alternate"] = list(w.alternate)
    return out


def _verification_dict(outcome: SolverOutcome) -> dict:
    ver = outcome.verification or {}
    out = {}
    if "square" in ver:
        sq = ver["square"]
        out["square_pairs_ok"] = sq.pair_ok
        out["square_multivector_ok"] = sq.multivector_ok
        out["square_checks_agree"] = sq.agree
    if "compatible" in ver:
        cp = ver["compatible"]
        out["compatible_pairs_ok"] = cp.pair_ok
        out["compatible_multivector_ok"] = cp.multivector_ok
    if "sign_consistent" in ver:
        out["sign_consistent"] = ver["sign_consistent"]
    if "triple_chain_ok" in ver:
        out["triple_chain_ok"] = ver["triple_chain_ok"]
    return out


def _base_report(args, command: str) -> dict:
    return {
        "tool": {"name": "orbitpoisson", "version": __version__, "schema": SCHEMA_VERSION},
        "command": command,
        "input": {
            "type": args.type_label,
            "rank": args.rank,
            "gamma": sorted(_parse_gamma(args.gamma, args.rank)),
        },
    }


def _build(args, sweep: bool = False) -> tuple[RootSystem, ChevalleyBasis, LeviDatum]:
    try:
        validate_type(args.type_label, args.rank)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    count = ROOT_COUNTS[args.type_label](args.rank)
    if count > MAX_ROOTS:
        raise ConfigError(f"{args.type_label}{args.rank} has {count} roots, "
                          f"more than the limit of {MAX_ROOTS}")
    if sweep and 2 ** args.rank > MAX_SWEEP_ORBITS:
        raise ConfigError(f"--all-gamma on {args.type_label}{args.rank} sweeps "
                          f"{2 ** args.rank} orbits, more than the limit of {MAX_SWEEP_ORBITS}")
    rs = build_root_system(args.type_label, args.rank)
    basis = build_chevalley_basis(rs)
    levi = build_levi(rs, _parse_gamma(args.gamma, args.rank))
    return rs, basis, levi


def _require_lambda(args, levi: LeviDatum) -> LinearForm:
    if args.lam is None:
        raise ConfigError("this mode requires --lambda")
    vals = _parse_scalars(args.lam, "lambda")
    try:
        return LinearForm(levi, vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _classify_one(rs, basis, gamma, seed, lam=None) -> dict:
    verdict = classify_good(rs, gamma, basis, rng_seed=seed, lam=lam)
    entry = {
        "gamma": sorted(gamma),
        "good": verdict.good,
        "verdicts": {
            "closed_form": verdict.closed_form,
            "quasiroot_type_a": verdict.type_a,
            "solver": verdict.solver_ok,
        },
        "evidence": {
            "highest_root_coefficients": {
                str(i): c for i, c in sorted(verdict.highest_root_coefficients.items())
            },
            "removed_nodes": list(verdict.levi.free_positions),
            "chain": [list(q) for q in verdict.chain] if verdict.chain else None,
            "lambda": [str(v) for v in verdict.lambda_values],
            "rng_seed": verdict.rng_seed,
        },
    }
    if verdict.witness is not None:
        entry["witness"] = _witness_dict(verdict.levi, verdict.witness)
    return entry


def cmd_classify(args) -> tuple[dict, int]:
    rs, basis, levi = _build(args, sweep=args.all_gamma)
    report = _base_report(args, "classify")
    if args.all_gamma:
        if args.lam is not None:
            raise ConfigError("--lambda cannot be combined with --all-gamma: "
                              "its length rank - |Gamma| differs between orbits")
        if levi.gamma:
            raise ConfigError("--gamma cannot be combined with --all-gamma")
        sweep = []
        indices = list(range(1, args.rank + 1))
        for size in range(args.rank + 1):
            for combo in combinations(indices, size):
                sweep.append(_classify_one(rs, basis, frozenset(combo), args.seed))
        report["result"] = {"sweep": sweep}
    else:
        lam = None if args.lam is None else _require_lambda(args, levi)
        report["result"] = _classify_one(rs, basis, levi.gamma, args.seed, lam)
    return report, EXIT_OK


def _solve_outcome(args, basis, levi) -> tuple[SolverOutcome, dict]:
    mode = args.mode
    meta: dict = {"mode": mode}
    if mode == "kks":
        lam = _require_lambda(args, levi)
        solution = kks(levi, lam)
        sq = verify_square(solution, 0, basis)
        cp = verify_compatible(solution, lam, basis)
        outcome = SolverOutcome(
            solution=solution,
            verification={"square": sq, "compatible": cp},
        )
        if not (sq.ok and cp.ok):
            raise InternalInvariantError("KKS bracket failed verification")
        meta["lambda"] = [format_scalar(v) for v in lam.values]
        return outcome, meta
    if mode == "recursion":
        if args.seeds is None:
            raise ConfigError("recursion mode requires --seeds")
        seeds = _parse_scalars(args.seeds, "seeds")
        K = _parse_scalar(args.K or "0", "K")
        try:
            outcome = solve_recursion(levi, seeds, K)
        except ValueError as exc:  # wrong number of seeds
            raise ConfigError(str(exc)) from exc
        if outcome.is_success:
            sq = verify_square(outcome.solution, K, basis)
            outcome.verification = {"square": sq}
            if not sq.ok:
                raise InternalInvariantError("recursion output failed verification")
        meta["seeds"] = [format_scalar(s) for s in seeds]
        meta["K"] = format_scalar(K)
        return outcome, meta
    if mode == "compatible":
        lam = _require_lambda(args, levi)
        if args.K is None:
            raise ConfigError("compatible mode requires --K")
        K = _parse_scalar(args.K, "K")
        seed = _parse_scalar(args.seed_c or "1", "seed-c")
        try:
            outcome = solve_compatible(levi, lam, K, args.sign, seed, basis)
        except ValueError as exc:  # K = 0
            raise ConfigError(str(exc)) from exc
        meta.update(
            {
                "lambda": [format_scalar(v) for v in lam.values],
                "K": format_scalar(K),
                "sign": args.sign,
                "seed_c": format_scalar(seed),
            }
        )
        return outcome, meta
    raise ConfigError(f"unknown mode {mode!r}")


def cmd_solve(args) -> tuple[dict, int]:
    rs, basis, levi = _build(args)
    report = _base_report(args, "solve")
    outcome, meta = _solve_outcome(args, basis, levi)
    result: dict = dict(meta)
    if outcome.is_success:
        result["coefficients"] = _coefficient_table(outcome.solution)
        result["verification"] = _verification_dict(outcome)
        code = EXIT_OK
    else:
        result["witness"] = _witness_dict(levi, outcome.witness)
        result["reason"] = outcome.reason
        code = EXIT_WITNESS
    report["result"] = result
    return report, code


def cmd_cohomology(args) -> tuple[dict, int]:
    rs, basis, levi = _build(args)
    report = _base_report(args, "cohomology")
    outcome, meta = _solve_outcome(args, basis, levi)
    if not outcome.is_success:
        report["result"] = {
            "witness": _witness_dict(levi, outcome.witness),
            "reason": outcome.reason,
        }
        return report, EXIT_WITNESS
    # the oracle refuses oversized orbits at once; the complex would not
    try:
        oracle = de_rham_betti(rs, levi.gamma)
    except WeylBoundExceeded as exc:
        raise ConfigError(f"orbit too large for the cohomology oracle: {exc}") from exc
    _check_size(levi, args.max_monomials)
    betti = betti_numbers(levi, basis, outcome.solution)
    match = betti == oracle
    report["result"] = {
        **meta,
        "betti": betti,
        "de_rham": oracle,
        "match": match,
        "euler_characteristic": sum(
            (-1) ** k * b for k, b in enumerate(betti)
        ),
        "verification": _verification_dict(outcome),
    }
    return report, EXIT_OK


def _check_size(levi: LeviDatum, limit: int) -> None:
    """Refuse an orbit with more than ``limit`` weight-zero monomials in all
    degrees before the invariant complex is built."""
    if limit < 0:
        raise ConfigError("--max-monomials must be nonnegative")
    counts = weight_zero_counts(levi, limit)
    if counts is None:
        raise ConfigError(
            f"orbit too large for the invariant complex: more than {limit} "
            "weight-zero monomials (--max-monomials)"
        )
    if sum(counts) > limit:
        raise ConfigError(
            f"orbit too large for the invariant complex: {sum(counts)} weight-zero "
            f"monomials exceed {limit} (--max-monomials)"
        )


def _render_text(report: dict) -> str:
    lines = [f"orbitpoisson {report['tool']['version']} - {report['command']}"]
    inp = report["input"]
    gamma = ",".join(map(str, inp["gamma"])) or "(empty)"
    lines.append(f"algebra {inp['type']}{inp['rank']}  gamma {gamma}")
    result = report.get("result", {})

    def emit(d: dict, indent: str = "  "):
        for key, value in d.items():
            if key == "coefficients":
                lines.append(f"{indent}coefficients:")
                for row in value:
                    lines.append(f"{indent}  {row['label']:<18} {row['value']}")
            elif key == "sweep":
                for entry in value:
                    g = ",".join(map(str, entry["gamma"])) or "(empty)"
                    lines.append(f"{indent}gamma {g:<14} good={entry['good']}")
            elif isinstance(value, dict):
                lines.append(f"{indent}{key}:")
                emit(value, indent + "  ")
            else:
                lines.append(f"{indent}{key}: {value}")

    emit(result)
    return "\n".join(lines) + "\n"


def _load_config(path: str) -> dict:
    """Flat key = value file mirroring the command-line options."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return out


def _apply_config(argv: list[str]) -> list[str]:
    at = next((k for k, a in enumerate(argv)
               if a == "--config" or a.startswith("--config=")), None)
    if at is None:
        return argv
    if argv[at] == "--config":
        if at + 1 == len(argv):
            raise ConfigError("--config requires a path")
        path, rest = argv[at + 1], argv[:at] + argv[at + 2 :]
    else:
        path, rest = argv[at].partition("=")[2], argv[:at] + argv[at + 1 :]
    cfg = _load_config(path)
    if not rest or rest[0].startswith("-"):
        try:
            head = [cfg.pop("command"), cfg.pop("type"), cfg.pop("rank")]
        except KeyError as exc:
            raise ConfigError(f"config file must set {exc} when not given on the command line")
    else:
        head, rest = rest[:1], rest[1:]
    # the file's flags go first, so argparse keeps every explicit spelling
    flags = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags.append(f"{flag}={value}")
    return head + flags + rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitpoisson",
        description="Exact invariant brackets on semisimple coadjoint orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("type_label", metavar="TYPE", choices=list("ABCDEFG"))
        p.add_argument("rank", type=int)
        p.add_argument("--gamma", default="", help="comma-separated Bourbaki indices")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing")

    p_classify = sub.add_parser("classify", help="good-orbit classification")
    common(p_classify)
    p_classify.add_argument("--all-gamma", action="store_true")
    p_classify.add_argument("--seed", type=int, default=0, help="RNG seed for the random form")
    p_classify.add_argument("--lambda", dest="lam", default=None,
                            help="use this form instead of a random one")
    p_classify.set_defaults(func=cmd_classify)

    for name, fn in (("solve", cmd_solve), ("cohomology", cmd_cohomology)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--mode", choices=("kks", "recursion", "compatible"), required=True)
        p.add_argument("--lambda", dest="lam", default=None, help="form values, comma-separated scalars")
        p.add_argument("--K", default=None, help="exact scalar, e.g. 1, i, 2/3")
        p.add_argument("--sign", choices=("+", "-"), default="+")
        p.add_argument("--seed-c", dest="seed_c", default=None, help="seed coefficient (compatible mode)")
        p.add_argument("--seeds", default=None, help="seed coefficients (recursion mode)")
        if name == "cohomology":
            p.add_argument("--max-monomials", type=int, default=MAX_MONOMIALS,
                           help="refuse orbits with more weight-zero monomials in all "
                                f"degrees (default {MAX_MONOMIALS})")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        report, code = args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    if args.format == "text":
        sys.stdout.write(_render_text(report))
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
