"""Batch front door: verification suites, censuses, posets, decompositions.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage,
input, precision or budget error.  Input errors include a `verify
--prec` at or below the largest weight of `--mu` (t^mu is not
representable, so no suite runs), a `verify --suite witt` whose mixed
census cannot run, and a `cartan` matrix that is singular or whose
pivots cannot be decided within its precision.  `verify --suite all`
runs suite witt without that census and notes it on stderr, as `verify`
notes a suite lemmas run without its exhaustive checks.  All output is
deterministic given the flags and the seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .coset import MIXED_CENSUS_NEEDS, class_census, mixed_census_applies
from .errors import BudgetExceeded, InsufficientPrecision, LoopZipError, NotInvertible
from .gf import PRIMES, SIZES, FieldSpec
from .grpdata import Cocharacter
from .matring import Mat, snf_dvr
from .orbits import ACTION_KINDS, ActionSpec, enumerate_orbits
from .suites import LEMMAS_EXHAUSTIVE_NEEDS, SCHEMA, SUITES, lemmas_exhaustive, run_suites
from .weyl import CosetPoset
from .witt import ghost_selftest


def _parse_mu(text: str) -> Cocharacter:
    try:
        weights = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad weight list {text!r}") from exc
    return Cocharacter(weights)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(doc, out: str | None) -> None:
    _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _write_csv(rows, out: str | None) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_out(buf.getvalue(), out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loopzip",
        description="exact loop-group double-coset verification over small finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="matrix size (inferred from --mu)")
        p.add_argument("--q", type=int, default=2, choices=SIZES)
        p.add_argument("--mu", required=True, help="weights, e.g. 1,0")
        p.add_argument("--tau", type=int, default=None, help="Frobenius power (default 1)")
        p.add_argument("--out", default=None)
        p.add_argument("--format", default=None, choices=("json", "csv"))

    pv = sub.add_parser("verify", help="run verification suites")
    common(pv)
    pv.add_argument("--suite", required=True,
                    choices=tuple(SUITES) + ("all",))
    pv.add_argument("--prec", type=int, default=6,
                    help="working precision; psi, witt and weyl raise it to the "
                         "safe floor of --mu, lemmas and prozip run at it as given")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=_positive_int, default=100)

    po = sub.add_parser("orbits", help="orbit census as CSV")
    common(po)
    po.add_argument("--action", required=True, choices=ACTION_KINDS + ("class-census",))

    pc = sub.add_parser("cartan", help="decompose a JSON matrix from standard input")
    pc.add_argument("--out", default=None)

    pp = sub.add_parser("poset", help="coset order as a DOT Hasse diagram")
    pp.add_argument("--n", type=int, default=None)
    pp.add_argument("--mu", required=True)
    pp.add_argument("--out", default=None)
    pp.add_argument("--format", default="dot", choices=("dot", "json"))

    pw = sub.add_parser("witt-selftest", help="ghost-oracle pass rate")
    pw.add_argument("--q", type=int, default=2, help="prime p of the Witt ring")
    pw.add_argument("--prec", type=int, default=4, help="Witt length N")
    pw.add_argument("--samples", type=_positive_int, default=500)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--out", default=None)
    return ap


def _check_n(args, mu: Cocharacter) -> None:
    if args.n is not None and args.n != mu.n:
        raise ValueError(f"--n {args.n} contradicts --mu of length {mu.n}")


def _flat_str(flat) -> str:
    return ";".join(str(c) for c in flat)


def cmd_verify(args) -> int:
    mu = _parse_mu(args.mu)
    _check_n(args, mu)
    if args.prec <= max(mu.weights):
        raise ValueError(f"--prec {args.prec} cannot represent t^{max(mu.weights)}")
    spec = FieldSpec.for_q(args.q)
    witt_census = mixed_census_applies(spec, mu)
    if args.suite == "witt" and not witt_census:
        raise ValueError(MIXED_CENSUS_NEEDS)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    cfg = {
        "n": mu.n,
        "q": args.q,
        "mu": list(mu.weights),
        "prec": args.prec,
        "seed": args.seed,
        "samples": args.samples,
        "tau": 1 if args.tau is None else args.tau,
    }
    report = run_suites(names, cfg)
    if "lemmas" in names and not lemmas_exhaustive(spec, mu):
        sys.stderr.write("note: suite lemmas ran without its exhaustive checks: "
                         f"{LEMMAS_EXHAUSTIVE_NEEDS}\n")
    if args.suite == "all" and not witt_census:
        sys.stderr.write(f"note: suite witt ran without its mixed census: {MIXED_CENSUS_NEEDS}\n")
    if args.format == "csv":
        _write_csv([["suite", "check", "passed"]]
                   + [[c["suite"], c["name"], c["passed"]] for c in report["checks"]], args.out)
    else:
        _write_json(report, args.out)
    return 0 if report["passed"] else 1


def cmd_orbits(args) -> int:
    mu = _parse_mu(args.mu)
    _check_n(args, mu)
    if args.action == "class-census":
        if args.tau is not None:
            raise ValueError("orbits --action class-census takes no --tau")
        census = class_census(mu, FieldSpec.for_q(args.q))
        rows = [
            {"mu": list(mu.weights), "q": args.q, "rep_g": list(g),
             "rep_h": list(h), "orbit_size": size}
            for (g, h), size in census.items()
        ]
        if args.format == "json":
            _write_json({"schema": SCHEMA, "census": rows}, args.out)
            return 0
        _write_csv([["mu", "q", "rep_g", "rep_h", "orbit_size"]]
                   + [[",".join(map(str, row["mu"])), row["q"], _flat_str(row["rep_g"]),
                       _flat_str(row["rep_h"]), row["orbit_size"]] for row in rows], args.out)
        return 0
    tau = 1 if args.tau is None else args.tau
    part = enumerate_orbits(ActionSpec(args.action, mu, args.q, tau))
    if args.format == "json":
        rows = [
            {"rep": list(rep[0]) + list(rep[1]) if args.action == "sigma-conj"
             else list(rep), "size": size, "members_hash": digest}
            for rep, size, digest in part.orbits
        ]
        _write_json({"schema": SCHEMA, "action": args.action, "mu": list(mu.weights),
                     "q": args.q, "tau": tau, "total": part.total,
                     "acting_order": part.acting_order, "orbits": rows}, args.out)
        return 0
    rows = [["action", "mu", "q", "rep", "size"]]
    for rep, size, _ in part.orbits:
        if args.action == "sigma-conj":
            rep_str = _flat_str(rep[0]) + "|" + _flat_str(rep[1])
        else:
            rep_str = _flat_str(rep)
        rows.append([args.action, ",".join(map(str, mu.weights)), args.q, rep_str, size])
    _write_csv(rows, args.out)
    return 0


def cmd_cartan(args) -> int:
    try:
        data = json.loads(sys.stdin.read())
        x = Mat.from_json(data)
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"bad matrix input: {exc}\n")
        return 2
    try:
        a, d, b = snf_dvr(x)
    except (NotInvertible, InsufficientPrecision) as exc:
        # cartan checks nothing, so an undecomposable matrix is bad input
        sys.stderr.write(f"bad matrix input: {exc}\n")
        return 2
    _write_json({"a": a.to_json(), "d": list(d), "b": b.to_json()}, args.out)
    return 0


def cmd_poset(args) -> int:
    mu = _parse_mu(args.mu)
    _check_n(args, mu)
    poset = CosetPoset(mu.n, mu.type_J)
    if args.format == "json":
        _write_json(poset.to_json(), args.out)
    else:
        _write_out(poset.to_dot(), args.out)
    return 0


def cmd_witt_selftest(args) -> int:
    if args.q not in PRIMES:
        raise ValueError("Witt selftest needs a prime --q")
    rep = ghost_selftest(args.q, args.prec, args.samples, args.seed)
    rate = rep["passed_samples"] / rep["samples"]
    text = (
        f"ghost oracle p={rep['p']} N={rep['N']}: "
        f"{rep['passed_samples']}/{rep['samples']} passed ({rate:.1%})\n"
    )
    _write_out(text, args.out)
    return 0 if rep["passed"] else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "orbits": cmd_orbits,
        "cartan": cmd_cartan,
        "poset": cmd_poset,
        "witt-selftest": cmd_witt_selftest,
    }
    try:
        return handlers[args.command](args)
    except (BudgetExceeded, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except InsufficientPrecision as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LoopZipError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
