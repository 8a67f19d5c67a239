"""Acceptance gate: every criterion at its stated size, tolerance, and budget.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure).
All checks are exact; the only tolerances are the wall-clock budgets.
"""

import itertools
import json
import time

from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter
from loopzip.coset import (
    class_census,
    class_of,
    default_precision,
    embedding_fiber_report,
    kernel_invariance_report,
    pair_matrix,
    verify_class_bijection,
    witt_census_report,
)
from loopzip.orbits import chain_compare, transport_check, weyl_reps_report
from loopzip.series import LaurentElt
from loopzip.suites import (
    integral_conjugation_checks,
    minuscule_check,
    run_suites,
    zip_inclusion_checks,
)
from loopzip.weyl import (
    CosetPoset,
    all_permutations,
    bruhat_leq,
    identity,
    min_coset_reps,
    parabolic_subgroup,
    reduced_word,
    shtuka_parametrization,
    simple_reflection,
    zip_parametrization,
)
from loopzip.witt import ghost_selftest

CONFIGS = [
    (2, (1, 0)),
    (2, (2, 0)),
    (3, (1, 0)),
    (2, (1, 1, 0)),
]


def _spec(q):
    return FieldSpec.for_q(q)


def _report(criterion, label, passed, elapsed):
    state = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} [{label}]: {state} ({elapsed:.1f}s)")


def test_criterion_1_class_orbit_bijection():
    all_ok = True
    for q, weights in CONFIGS:
        mu = Cocharacter(weights)
        t0 = time.time()
        rep = verify_class_bijection(mu, _spec(q), default_precision(mu),
                                     class_census(mu, _spec(q)))
        elapsed = time.time() - t0
        ok = (
            rep["injective"]
            and rep["surjective"]
            and rep["round_trip"]
            and rep["orbit_count"] == rep["class_count"]
            and elapsed < 60
        )
        _report(1, f"bijection GL{mu.n}(F{q}) mu={weights}", ok, elapsed)
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_2_inclusion_suite():
    t0 = time.time()
    mu2 = Cocharacter((1, 0))
    ok = True
    for prec in (2, 3):
        rep = integral_conjugation_checks(_spec(2), mu2, prec, 0, 0, exhaustive=True)
        ok = ok and rep["failures"] == 0
    for spec, weights in [(_spec(2), (1, 1, 0)), (_spec(3), (1, 0))]:
        mu = Cocharacter(weights)
        rep = integral_conjugation_checks(spec, mu, 6, 500, 0, exhaustive=False)
        ok = ok and rep["failures"] == 0 and rep["cases"] >= 500
        rep = zip_inclusion_checks(spec, mu, 6, 500, 1)
        ok = ok and rep["failures"] == 0
    rep = minuscule_check(_spec(2), Cocharacter((1, 0)), 6, 500, 2)
    ok = ok and rep["passed"]
    rep = minuscule_check(_spec(2), Cocharacter((2, 0)), 6, 500, 3)
    ok = ok and rep["witness_in_kernel"] and rep["witness_escapes"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(2, "loop-group inclusion suite", ok, elapsed)
    assert ok


def test_criterion_3_kernel_bi_invariance():
    all_ok = True
    for q, weights in CONFIGS:
        mu = Cocharacter(weights)
        t0 = time.time()
        rep = kernel_invariance_report(
            mu, LaurentElt.one(_spec(q), default_precision(mu)), 500, seed=11
        )
        elapsed = time.time() - t0
        ok = rep["passed_samples"] == rep["samples"] == 500
        _report(3, f"kernel invariance GL{mu.n}(F{q}) mu={weights}", ok, elapsed)
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_4_rescaling():
    t0 = time.time()
    mu = Cocharacter((1, 0))
    spec = _spec(2)
    base = class_census(mu, spec)
    ok = True
    for factor in (2, 3):
        mu_k = mu.scaled(factor)
        one = LaurentElt.one(spec, default_precision(mu_k))
        other = class_census(mu_k, spec)
        ok = ok and set(base) == set(other)
        for rep_pair in base:
            got = class_of(pair_matrix(mu_k, rep_pair[0], rep_pair[1], one), mu_k)
            ok = ok and got == rep_pair
    elapsed = time.time() - t0
    _report(4, "rescaling representative-for-representative", ok, elapsed)
    assert ok


def test_criterion_5_mixed_characteristic():
    t0 = time.time()
    rep = witt_census_report(Cocharacter((1, 0)), _spec(2), 3, 6)
    ok = rep["census_equal"] and rep["pointwise_equal"]
    for p in (2, 3):
        for length in (1, 2, 3, 4):
            g = ghost_selftest(p, length, 500, seed=7)
            ok = ok and g["passed_samples"] == 500
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(5, "mixed-characteristic census and ghost oracle", ok, elapsed)
    assert ok


def test_criterion_6_embedding_fibers():
    all_ok = True
    for q, weights in CONFIGS:
        mu = Cocharacter(weights)
        t0 = time.time()
        rep = embedding_fiber_report(mu, _spec(q))
        elapsed = time.time() - t0
        ok = rep["alpha_ok"] and rep["beta_ok"]
        _report(6, f"embedding fibers GL{mu.n}(F{q}) mu={weights}", ok, elapsed)
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_7_transport_and_chain():
    all_ok = True
    mu = Cocharacter((1, 0))
    for q in (2, 4):
        t0 = time.time()
        chain = chain_compare(mu, q, 1)
        transport = transport_check(mu, q, 1, samples=50, seed=13)
        elapsed = time.time() - t0
        ok = chain["passed"] and transport["passed"] and elapsed < 60
        _report(7, f"zip transport and chain GL2(F{q})", ok, elapsed)
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_8_weyl_layer():
    t0 = time.time()
    ok = True

    def subword_oracle(u, w):
        word = reduced_word(w)
        lu = u.length()
        for combo in itertools.combinations(range(len(word)), lu):
            prod = identity(u.n)
            for idx in combo:
                prod = prod * simple_reflection(u.n, word[idx])
            if prod == u:
                return True
        return False

    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        ok = ok and all(
            bruhat_leq(u, w) == subword_oracle(u, w) for u in perms for w in perms
        )

    for q, weights in CONFIGS:
        mu = Cocharacter(weights)
        reps = min_coset_reps(mu.n, mu.type_J)
        total = 1
        for i in range(2, mu.n + 1):
            total *= i
        ok = ok and len(reps) * len(list(parabolic_subgroup(mu.n, mu.type_J))) == total
        zips = {zip_parametrization(w, mu) for w in reps}
        shts = {shtuka_parametrization(w, mu)[0] for w in reps}
        ok = ok and len(zips) == len(reps) and len(shts) == len(reps)

    poset = CosetPoset(3, {1})  # axioms verified at construction
    bruhat_poset = CosetPoset(3, set())
    ok = ok and all(
        bruhat_poset.leq(u, w) == bruhat_leq(u, w)
        for u in bruhat_poset.elements
        for w in bruhat_poset.elements
    )

    for q, weights in [(2, (1, 0)), (3, (1, 0)), (2, (2, 0)), (2, (1, 1, 0))]:
        rep = weyl_reps_report(Cocharacter(weights), q)
        ok = ok and rep["pairwise_distinct"] and rep["count_at_least_reps"]

    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(8, "Weyl layer", ok, elapsed)
    assert ok


def test_criterion_9_determinism():
    t0 = time.time()
    cfg = {"n": 2, "q": 2, "mu": [1, 0], "prec": 6, "seed": 42, "samples": 25,
           "tau": 1}
    names = ("lemmas", "psi", "witt", "chain", "weyl", "prozip")
    first = json.dumps(run_suites(names, cfg), sort_keys=True)
    second = json.dumps(run_suites(names, cfg), sort_keys=True)
    elapsed = time.time() - t0
    ok = first == second
    _report(9, "deterministic reports", ok, elapsed)
    assert ok
