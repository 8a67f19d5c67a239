"""Named verification suites behind the command-line front door.

Each suite lists its check dicts {name, passed, ...}, each finished where
it is built; `run_suites` parses the configuration once, tags every check
with its suite and wraps them into a report of version `SCHEMA`.
Everything is deterministic given the configuration and the seed.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, prod

from .coset import (
    MIXED_LENGTH,
    MIXED_PRIMES,
    class_census,
    default_precision,
    embedding_fiber_report,
    kernel_invariance_report,
    mixed_census_applies,
    prozip_invariance_report,
    verify_class_bijection,
    witt_census_report,
)
from .gf import FieldSpec
from .grpdata import (
    Cocharacter,
    all_series_subgroup,
    conj_by_mu,
    in_conj_integral,
    in_h,
    in_k1,
    in_zip_loop,
    random_k1_mat,
    random_left_h_mat,
    random_series_subgroup,
    zip_pair_generators,
)
from .matring import Mat
from .orbits import (ACTION_KINDS, ActionSpec, chain_compare, check_action_axioms, transport_check,
                     weyl_reps_report)
from .series import LaurentElt
from .weyl import (
    CosetPoset,
    all_permutations,
    bruhat_leq,
    identity,
    min_coset_reps,
    reduced_word,
    shtuka_parametrization,
    simple_reflection,
    zip_parametrization,
)
from .witt import WittCtx, WittFraction, ghost_selftest

SCHEMA = 1  # the "schema" of the verify report and of the orbits JSON documents
RESCALING_FACTORS = (2, 3)  # the k of the rescaling checks, which compare mu with k mu
LEMMAS_EXHAUSTIVE_NEEDS = ("the exhaustive checks of suite lemmas need n = 2, q = 2, "
                           "1x1 blocks and a weight gap <= 3")

# -- loop-group inclusion checks --------------------------------------------------


def integral_conjugation_checks(spec: FieldSpec, mu: Cocharacter, prec: int,
                                samples: int, seed: int, exhaustive: bool) -> dict:
    """The four inclusion relations for the mu-conjugates of U_+/P_+ and U_-/P_-.

    Conjugating U_+ towards positive powers lands in the depth-one kernel;
    conjugating P_+ stays integral; mirrored on the minus side.
    """
    rng = random.Random(seed)
    cases = 0
    failures = 0
    for sign in (+1, -1):
        for parabolic in (False, True):
            if exhaustive:
                elements = all_series_subgroup(spec, mu, sign, parabolic, prec)
            else:
                elements = (random_series_subgroup(spec, mu, sign, parabolic, prec, rng)
                            for _ in range(samples))
            for g in elements:
                cases += 1
                c = conj_by_mu(g, mu, -sign)
                failures += not (c.is_integral() if parabolic else in_k1(c))

    return {
        "name": "integral-conjugation-inclusions",
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "exhaustive": exhaustive,
        "cases": cases,
        "failures": failures,
        "passed": failures == 0,
    }


def zip_inclusion_checks(spec: FieldSpec, mu: Cocharacter, prec: int,
                         samples: int, seed: int) -> dict:
    """Sampled membership chain for elements integral on both sides of mu.

    Every such element reduces into P_+, its mu-conjugate is integral on
    the other side, and the conjugate pair has matching Levi reductions.
    """
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        g = random_left_h_mat(spec, mu, prec, rng)
        h = conj_by_mu(g, mu, -1)
        ok = (
            in_conj_integral(g, mu, -1)
            and in_h(g, mu, +1)
            and in_conj_integral(h, mu, +1)
            and in_zip_loop(h, g, mu)
        )
        failures += not ok
    return {
        "name": "two-sided-integral-membership",
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "samples": samples,
        "failures": failures,
        "passed": failures == 0,
    }


def minuscule_check(spec: FieldSpec, mu: Cocharacter, prec: int,
                    samples: int, seed: int) -> dict:
    """Depth-one kernel conjugation: stays integral iff all weight gaps <= 1.

    For a minuscule mu every sampled kernel element conjugates integrally;
    otherwise an explicit violating witness is produced.
    """
    rng = random.Random(seed)
    n = mu.n
    one = LaurentElt.one(spec, prec)
    if mu.is_minuscule():
        failures = 0
        for _ in range(samples):
            k = random_k1_mat(one, n, rng)
            failures += not conj_by_mu(k, mu, +1).is_integral()
            # full elements of the parabolic-times-kernel subgroups, P_- K_1 then P_+ K_1
            for sign in (-1, +1):
                h = random_series_subgroup(spec, mu, sign, True, prec, rng)
                h = h * random_k1_mat(one, n, rng)
                failures += not conj_by_mu(h, mu, -sign).is_integral()
        return {
            "name": "minuscule-kernel-conjugation",
            "mu": list(mu.weights),
            "minuscule": True,
            "samples": samples,
            "failures": failures,
            "witness": None,
            "passed": failures == 0,
        }
    # witness: identity plus t in the corner with the widest gap
    ident = Mat.identity(n, one)
    rows = [list(r) for r in ident.rows]
    rows[0][n - 1] = rows[0][n - 1] + LaurentElt.t_power(spec, 1, prec)
    witness = Mat(rows)
    in_kernel = in_k1(witness)
    escapes = not conj_by_mu(witness, mu, +1).is_integral()
    return {
        "name": "minuscule-kernel-conjugation",
        "mu": list(mu.weights),
        "minuscule": False,
        "witness": "I + t*E(1,n)",
        "witness_in_kernel": in_kernel,
        "witness_escapes": escapes,
        "passed": in_kernel and escapes,
    }


def zip_rescaling_check(spec: FieldSpec, mu: Cocharacter) -> dict:
    """The zip group depends only on the blocks: its generating sets agree
    under scaling, so the groups they generate do."""
    base = zip_pair_generators(spec, mu)
    ok = all(zip_pair_generators(spec, mu.scaled(k)) == base for k in RESCALING_FACTORS)
    return {
        "name": "zip-group-rescaling-invariance",
        "mu": list(mu.weights),
        "q": spec.q,
        "factors": list(RESCALING_FACTORS),
        "passed": ok,
    }


# -- suites -------------------------------------------------------------------------


def lemmas_exhaustive(spec: FieldSpec, mu: Cocharacter) -> bool:
    """Whether suite lemmas runs its exhaustive checks, as LEMMAS_EXHAUSTIVE_NEEDS states."""
    # each step of the weight gap makes the exhaustive precisions eight times larger
    return (mu.n == 2 and spec.q == 2 and all(s == 1 for _, s in mu.blocks)
            and mu.weights[0] - mu.weights[-1] <= 3)


def suite_lemmas(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    prec = cfg["prec"]
    seed = cfg["seed"]
    samples = cfg["samples"]
    checks = []
    # Conjugating by mu moves precision windows by up to the weight gap, so
    # the exhaustive precisions start above it (two 1x1 blocks make gap >= 1).
    if lemmas_exhaustive(spec, mu):
        gap = mu.weights[0] - mu.weights[-1]
        for small in (gap + 1, gap + 2):
            checks.append(
                dict(integral_conjugation_checks(spec, mu, small, 0, seed, True),
                     name=f"integral-conjugation-inclusions-exhaustive-N{small}")
            )
    checks.append(integral_conjugation_checks(spec, mu, prec, samples, seed, False))
    checks.append(zip_inclusion_checks(spec, mu, prec, samples, seed + 1))
    checks.append(minuscule_check(spec, mu, prec, samples, seed + 2))
    if mu.is_minuscule():
        # demonstrate the failure side as well, on a non-minuscule cousin
        wide = Cocharacter((2,) + (0,) * (mu.n - 1))
        checks.append(
            dict(minuscule_check(spec, wide, max(prec, 6), samples, seed + 3),
                 name="non-minuscule-witness")
        )
    checks.append(zip_rescaling_check(spec, mu))
    return checks


def suite_psi(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    prec = max(cfg["prec"], default_precision(mu))
    census = class_census(mu, spec)
    checks = [
        verify_class_bijection(mu, spec, prec, census),
        kernel_invariance_report(mu, LaurentElt.one(spec, prec), cfg["samples"], cfg["seed"]),
        embedding_fiber_report(mu, spec),
    ]
    # the zip groups of mu and k mu agree, so the census of mu is that of k mu:
    # each representative's class in the cell of k mu is the representative itself
    round_trips = [verify_class_bijection(nu, spec, default_precision(nu), census)["round_trip"]
                   for nu in (mu.scaled(k) for k in RESCALING_FACTORS)]
    checks.append({
        "name": "rescaling-representative-match",
        "mu": list(mu.weights),
        "q": spec.q,
        "factors": list(RESCALING_FACTORS),
        "passed": all(round_trips),
    })
    return checks


def suite_witt(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    checks = [ghost_selftest(p, length, cfg["samples"], cfg["seed"])
              for p in MIXED_PRIMES for length in (2, 3, 4)]
    if mixed_census_applies(spec, mu):
        checks += [
            witt_census_report(mu, spec, MIXED_LENGTH, max(cfg["prec"], default_precision(mu))),
            kernel_invariance_report(mu, WittFraction.one(WittCtx.get(spec, MIXED_LENGTH)),
                                     cfg["samples"], cfg["seed"]),
        ]
    return checks


def suite_chain(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    q, m = cfg["q"], cfg["tau"]
    checks = [
        {"name": f"action-axioms-{kind}", "q": q,
         "passed": check_action_axioms(ActionSpec(kind, mu, q, m), seed=cfg["seed"])}
        for kind in ACTION_KINDS
    ]
    return checks + [chain_compare(mu, q, m), transport_check(mu, q, m, seed=cfg["seed"])]


def suite_weyl(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    n = mu.n
    checks = []
    # first, so that the class-census budget refuses before the exhaustive checks run
    rep = weyl_reps_report(mu, cfg["q"], cfg["tau"], max(cfg["prec"], default_precision(mu)))

    # Bruhat criterion against the subword oracle, exhaustively
    def subword_oracle(u, w):
        word = reduced_word(w)
        lu = u.length()
        for combo in itertools.combinations(range(len(word)), lu):
            acc = identity(n)
            for idx in combo:
                acc = acc * simple_reflection(n, word[idx])
            if acc == u:
                return True
        return False

    perms = list(all_permutations(n))
    mismatches = sum(
        1 for u in perms for w in perms if bruhat_leq(u, w) != subword_oracle(u, w)
    )
    checks.append({
        "name": "bruhat-vs-subword-oracle",
        "n": n,
        "pairs": len(perms) ** 2,
        "mismatches": mismatches,
        "passed": mismatches == 0,
    })

    reps = min_coset_reps(n, mu.type_J)
    expected = factorial(n) // prod(factorial(s) for _, s in mu.blocks)
    checks.append({
        "name": "coset-representative-count",
        "n": n,
        "J": sorted(mu.type_J),
        "count": len(reps),
        "expected": expected,
        "passed": len(reps) == expected,
    })

    poset = CosetPoset(n, mu.type_J)
    bruhat_poset = CosetPoset(n, set())
    degenerates = all(
        bruhat_poset.leq(u, w) == bruhat_leq(u, w)
        for u in bruhat_poset.elements
        for w in bruhat_poset.elements
    )
    checks.append({
        "name": "coset-order-axioms",
        "elements": len(poset.elements),
        "empty-type-is-bruhat": degenerates,
        "passed": degenerates,
    })

    shtuka = [shtuka_parametrization(w, mu)[0] for w in reps]
    zipp = [zip_parametrization(w, mu) for w in reps]
    inj = len(set(shtuka)) == len(reps) and len(set(zipp)) == len(reps)
    checks.append({
        "name": "parametrization-injectivity",
        "count": len(reps),
        "passed": inj,
    })

    checks.append(rep)
    return checks


def suite_prozip(cfg: dict, spec: FieldSpec, mu: Cocharacter) -> list:
    return [prozip_invariance_report(mu, spec, cfg["prec"], cfg["samples"], cfg["seed"])]


SUITES = {
    "lemmas": suite_lemmas,
    "psi": suite_psi,
    "witt": suite_witt,
    "chain": suite_chain,
    "weyl": suite_weyl,
    "prozip": suite_prozip,
}


def run_suites(names, cfg: dict) -> dict:
    spec, mu = FieldSpec.for_q(cfg["q"]), Cocharacter(cfg["mu"])
    checks = [dict(check, suite=name) for name in names for check in SUITES[name](cfg, spec, mu)]
    return {
        "schema": SCHEMA,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "suites": list(names),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
