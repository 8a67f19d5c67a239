import random

import pytest

from coset_oracle import lift
from laurent_oracle import (entry_form, from_coeff_list, full_integral_mat, full_left_h_mat,
                            mu_matrix, times_mu_mismatches)
from orbits_oracle import (DRAW_CASES, GL_CASES, ORBIT_CASES, enumerate_levi_flat,
                           enumerate_unipotent_flat, enumerate_zip_pairs_flat,
                           gl_listing_mismatches)
from loopzip.errors import BudgetExceeded, LoopZipError, NotInParabolic
from loopzip.gf import FieldSpec
from loopzip.grpdata import (
    Cocharacter,
    all_series_subgroup,
    block_positions,
    conj_by_mu,
    enumerate_gl_flat,
    gl_generators,
    gl_order,
    in_conj_integral,
    in_h,
    in_k1,
    in_parabolic,
    in_zip_loop,
    levi_component,
    random_integral_mat,
    random_k1_mat,
    random_left_h_mat,
    random_series_subgroup,
    zip_group_order,
    zip_pair_generators,
)
from loopzip.matring import (
    Mat,
    flat_frobenius,
    flat_identity,
    flat_invertible,
    flat_mul,
    flat_residue,
)
from loopzip.series import LaurentElt
from loopzip.suites import zip_rescaling_check
from loopzip.witt import WittCtx, WittFraction

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)


def in_zip_group(pm, pp, mu, spec=None, tau_power=0):
    """(p_-, p_+) in P_- x P_+ with Levi(p_-) = Levi(p_+), or its image under
    the tau_power-th Frobenius of `spec` when a spec is given."""
    if not (in_parabolic(pm, mu, -1) and in_parabolic(pp, mu, +1)):
        return False
    levi = levi_component(pp, mu)
    if spec is not None:
        levi = flat_frobenius(spec, levi, tau_power)
    return levi_component(pm, mu) == levi


def test_cocharacter_validation():
    mu = Cocharacter((2, 1, 1, 0))
    assert mu.blocks == ((2, 1), (1, 2), (0, 1))
    assert mu.block_of == (0, 1, 1, 2)
    assert mu.type_J == {2}
    with pytest.raises(ValueError):
        Cocharacter((0, 1))


def test_transforms():
    mu = Cocharacter((1, 0))
    assert mu.scaled(2).weights == (2, 0)
    assert mu.is_minuscule() and not Cocharacter((2, 0)).is_minuscule()


def test_mu_matrix_laurent():
    mu = Cocharacter((1, 0))
    m = mu_matrix(mu, LaurentElt.one(F2, 4))
    assert m.rows[0][0].valuation() == 1 and m.rows[1][1].valuation() == 0
    mu3 = Cocharacter((1, 0, -1))
    m3 = mu_matrix(mu3, LaurentElt.one(F2, 4))
    assert m3.rows[2][2].valuation() == -1


def test_mu_matrix_witt():
    wctx = WittCtx.get(F2, 3)
    m = mu_matrix(Cocharacter((1, 0)), WittFraction.one(wctx))
    # the (1,1) entry is the image of 2, whose coordinates are (0,1,0)
    assert wctx.coords(m.rows[0][0].num) == (0, 1, 0)
    assert wctx.coords(m.rows[1][1].num)[0] == 1


def test_times_mu_stores_what_the_product_by_mu_matrix_stores():
    # windows, stored leading zeros and codes, or the error and its message,
    # on matrices with poles, stored zeros and empty windows
    cases, bad, errors = times_mu_mismatches(2000, seed=3)
    assert bad == 0
    assert 0 < errors < cases


def test_conj_by_mu_blocks():
    mu = Cocharacter((1, 0))
    g = Mat([
        [from_coeff_list(F3, 0, [1], 4) for _ in range(2)]
        for _ in range(2)
    ])
    c = conj_by_mu(g, mu, +1)  # mu(t)^(-1) g mu(t)
    assert c.rows[0][1].valuation() == -1
    assert c.rows[1][0].valuation() == 1
    assert c.rows[0][0].valuation() == 0
    back = conj_by_mu(c, mu, -1)
    assert back.congruent_mod(g, back.min_precision())


def test_membership_block_predicates():
    mu = Cocharacter((1, 0))
    upper = (1, 2, 0, 2)
    lower = (1, 0, 2, 2)
    assert in_parabolic(upper, mu, +1)
    assert not in_parabolic(lower, mu, +1)
    assert in_parabolic(lower, mu, -1)
    assert not in_parabolic(upper, mu, -1)


def _drawn(draw):
    """The entry forms of draw()'s matrix, or the class and message of its error."""
    try:
        return [entry_form(x) for r in draw().rows for x in r]
    except (LoopZipError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_draws_match_the_full_loops_draw_for_draw(q):
    # the draws that read the residue from the codes keep the matrix, the
    # error and the random stream of the loops that build every series
    spec = FieldSpec.for_q(q)
    pick = random.Random(q)
    errors = set()
    for n in (1, 2, 3):
        for gap in range(4 if n > 1 else 1):
            for prec in range(-1, 13):
                low = pick.randrange(-2, 2)
                mu = Cocharacter(sorted([low, low + gap] + [low + pick.randrange(gap + 1)
                                                            for _ in range(n - 2)],
                                        reverse=True)[:n])
                seed = pick.randrange(10**6)
                new, old = random.Random(seed), random.Random(seed)
                for draw, full in ((lambda: random_integral_mat(spec, n, prec, new),
                                    lambda: full_integral_mat(spec, n, prec, old)),
                                   (lambda: random_left_h_mat(spec, mu, prec, new),
                                    lambda: full_left_h_mat(spec, mu, prec, old))):
                    got = _drawn(draw)
                    assert got == _drawn(full), (n, mu, prec)
                    assert new.getstate() == old.getstate(), (n, mu, prec)
                    if isinstance(got[0], str):
                        errors.add((got[0], prec))
    # the weight-gap refusal, and the windows below 1 of both draws
    assert ("ValueError", 1) in errors and ("ValueError", 2) in errors
    assert ("InsufficientPrecision", 0) in errors and ("ValueError", -1) in errors


def test_membership_loop_level():
    mu = Cocharacter((1, 0))
    rng = random.Random(0)
    k = random_k1_mat(LaurentElt.one(F2, 5), 2, rng)
    assert in_k1(k)
    assert in_h(k, mu, +1) and in_h(k, mu, -1)
    g = random_left_h_mat(F2, mu, 6, rng)
    assert in_conj_integral(g, mu, -1)
    h = conj_by_mu(g, mu, -1)
    assert in_conj_integral(h, mu, +1)
    assert in_zip_loop(h, g, mu)


def test_membership_loop_level_non_members():
    # one constructed non-member per predicate, so none passes by always
    # answering yes
    mu = Cocharacter((1, 0))
    one = LaurentElt.one(F3, 6)
    ident = lift(one, 2, (1, 0, 0, 1))
    upper = lift(one, 2, (1, 1, 0, 1))  # reduces into P_+ only
    lower = lift(one, 2, (1, 0, 1, 1))  # reduces into P_- only
    pole = Mat([[LaurentElt.t_power(F3, -1, 6), one.zero_at(6)], [one.zero_at(6), one]])
    assert not in_k1(upper)
    assert not in_k1(pole)
    assert not in_h(lower, mu, +1) and not in_h(pole, mu, +1)
    assert not in_h(upper, mu, -1) and not in_h(pole, mu, -1)
    # conj_by_mu(-1) divides entry (2,1) by t, conj_by_mu(+1) entry (1,2)
    assert not in_conj_integral(lower, mu, -1)
    assert not in_conj_integral(upper, mu, +1)
    assert in_conj_integral(upper, mu, -1) and in_conj_integral(lower, mu, +1)
    assert not in_zip_loop(ident, lift(one, 2, (1, 0, 0, 2)), mu)  # Levi parts differ
    assert not in_zip_loop(upper, ident, mu)  # h_- reduces outside P_-
    assert in_zip_loop(lower, upper, mu)


def test_zip_membership_pairs():
    mu = Cocharacter((1, 0))
    m = (2, 0, 0, 1)
    um = (1, 0, 1, 1)
    up = (1, 2, 0, 1)
    pm, pp = flat_mul(F3, 2, um, m), flat_mul(F3, 2, up, m)
    assert in_zip_group(pm, pp, mu)
    other = (1, 0, 0, 2)
    assert not in_zip_group(pm, flat_mul(F3, 2, up, other), mu)
    # Frobenius-twisted matching over F4
    F4 = FieldSpec.get(2, 2)
    mu4 = Cocharacter((1, 0))
    w = 2  # the code of w
    m4 = (w, 0, 0, 1)
    m4_frob = (F4.mul_table[w][w], 0, 0, 1)
    assert in_zip_group(m4_frob, m4, mu4, F4, tau_power=1)
    assert not in_zip_group(m4, m4, mu4, F4, tau_power=1)


def test_levi_component():
    mu = Cocharacter((1, 1, 0))
    p = (1, 1, 1, 0, 1, 1, 0, 0, 1)
    assert levi_component(p, mu) == (1, 1, 0, 0, 1, 0, 0, 0, 1)
    m = (0, 1, 0, 1, 0, 0, 0, 0, 1)
    assert levi_component(m, mu) == m
    u = (1, 0, 1, 0, 1, 1, 0, 0, 1)
    assert levi_component(u, mu) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    bad = (0, 0, 1, 0, 1, 0, 1, 0, 0)
    with pytest.raises(NotInParabolic):
        levi_component(bad, mu)


def test_enumeration_counts():
    mu = Cocharacter((1, 0))
    assert len(enumerate_gl_flat(F2, 2)) == gl_order(2, 2) == 6
    assert len(enumerate_unipotent_flat(F2, mu, +1)) == 2
    pairs = enumerate_zip_pairs_flat(F2, mu)
    assert len(pairs) == zip_group_order(mu, 2) == 4
    for pm, pp in pairs:
        assert in_zip_group(pm, pp, mu)
    mu3 = Cocharacter((1, 1, 0))
    assert zip_group_order(mu3, 2) == 4 * 6 * 4
    assert len(enumerate_levi_flat(F2, mu3)) == 6


def _closure(gens, law, identity) -> set:
    """The group the generators span, by a walk that multiplies on the right."""
    walk, seen = [identity], {identity}
    for x in walk:
        for g in gens:
            y = law(x, g)
            if y not in seen:
                seen.add(y)
                walk.append(y)
    return seen


@pytest.mark.parametrize("n, q", [(2, q) for q in (2, 3, 4, 5, 8, 9)] + [(3, 2), (3, 3)])
def test_gl_generators_generate_gl(n, q):
    # the torus element needs a primitive zeta: with w (code 3, order 4) at
    # q = 9 the closure is the index-2 subgroup of square determinants
    spec = FieldSpec.for_q(q)
    group = _closure(gl_generators(spec, n), lambda a, b: flat_mul(spec, n, a, b),
                     flat_identity(n))
    assert len(group) == gl_order(n, q)


@pytest.mark.parametrize("q, weights", sorted({(q, w) for _, q, w, _ in ORBIT_CASES}))
def test_zip_pair_generators_generate_the_zip_group(q, weights):
    spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
    n, ident = mu.n, flat_identity(mu.n)

    def law(u, v):
        return flat_mul(spec, n, u[0], v[0]), flat_mul(spec, n, u[1], v[1])

    for tau in (0, 1, 2):
        group = _closure(zip_pair_generators(spec, mu, tau), law, (ident, ident))
        assert len(group) == zip_group_order(mu, q)
        assert group == set(enumerate_zip_pairs_flat(spec, mu, tau))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_generator_counts_are_positions_times_m_plus_torus(q):
    # root elements: one per position and F_p-basis code; torus elements: one
    # per Levi block (one for GL_n), none at q = 2
    spec = FieldSpec.for_q(q)
    torus = int(q > 2)
    for n in (2, 3, 4):
        assert len(gl_generators(spec, n)) == n * (n - 1) * spec.m + torus
    for weights in [(1, 0), (0, 0), (1, -1), (1, 1, 0), (2, 1, 0), (1, 0, 0), (2, 1, 1, 0)]:
        mu = Cocharacter(weights)
        positions = 2 * len(block_positions(mu, +1)) + sum(s * (s - 1) for _, s in mu.blocks)
        for tau in (0, 1):
            assert len(zip_pair_generators(spec, mu, tau)) == (
                positions * spec.m + torus * len(mu.blocks))
    # GL2(F4) with mu (1, 0): 5 for sigma-conjugation, 6 for the zip groups
    # (the whole-subgroup sets of tests/orbits_oracle.py have 14 each)
    f4 = FieldSpec.for_q(4)
    assert len(gl_generators(f4, 2)) == 5
    assert len(zip_pair_generators(f4, Cocharacter((1, 0)), 1)) == 6


def test_zip_group_rescaling():
    # the rescaling check compares generating sets; equal sets must mean equal
    # groups, and unequal sets unequal groups, against the listed groups, over
    # every other weight of the same n as well as the rescaled ones
    others = [Cocharacter(w) for w in [(1, 0), (0, 0), (1, -1), (1, 1, 0), (2, 1, 0), (1, 0, 0)]]
    for q, weights in DRAW_CASES:
        spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
        assert zip_rescaling_check(spec, mu)["passed"]
        group = set(enumerate_zip_pairs_flat(spec, mu))
        for nu in [mu.scaled(2), mu.scaled(3)] + [nu for nu in others if nu.n == mu.n]:
            same = zip_pair_generators(spec, nu) == zip_pair_generators(spec, mu)
            assert same == (set(enumerate_zip_pairs_flat(spec, nu)) == group)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_gl_flat(FieldSpec.get(3, 2), 3)  # 339,655,680 matrices


def test_gl4_enumerates():
    # 20,160 matrices: inside the matrix cap, whatever n is
    assert len(enumerate_gl_flat(F2, 4)) == gl_order(4, 2) == 20_160


def test_gl_listing_matches_the_scan():
    # row by row, the same tuple as the scan of every candidate: GL_1 over
    # every field, GL_2 over F_2 .. F_9, GL_3(F_2) and GL_3(F_3)
    assert gl_listing_mismatches(GL_CASES) == (21_451, 0)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("prec", [2, 3])
def test_all_series_subgroup_counts_and_membership(sign, prec):
    # U_-(R) and U_+(R) have q^(N |positions|) elements, P_-(R) and P_+(R)
    # (q^N - q^(N-1))^n times as many, for R = F_q[t]/t^N
    mu, q = Cocharacter((1, 0)), 2
    free = q ** (prec * len(block_positions(mu, sign)))
    one = LaurentElt.one(F2, prec)
    for parabolic, count in ((False, free), (True, (q**prec - q**(prec - 1)) ** mu.n * free)):
        elements = list(all_series_subgroup(F2, mu, sign, parabolic, prec))
        assert len(elements) == len(set(elements)) == count
        assert all(in_h(g, mu, sign) for g in elements)
        if not parabolic:
            assert all(g.rows[i][i] == one for g in elements for i in range(mu.n))


def test_random_series_subgroup_levi_blocks_are_invertible():
    # (1,1,0) has a 2x2 Levi block, so a singular residue block can be drawn
    mu = Cocharacter((1, 1, 0))
    rng = random.Random(0)
    for sign in (+1, -1):
        for _ in range(50):
            g = random_series_subgroup(F3, mu, sign, True, 4, rng)
            assert in_h(g, mu, sign)
            assert flat_invertible(F3, 3, levi_component(flat_residue(g), mu))


def test_integral_conjugation_exhaustive_small():
    """mu-conjugation sends U_+(R) into the depth-one kernel and keeps
    P_+(R) integral, exhaustively for GL_2(F_2) at low precision."""
    from loopzip.suites import integral_conjugation_checks

    mu = Cocharacter((1, 0))
    for prec in (2, 3):
        rep = integral_conjugation_checks(F2, mu, prec, 0, 0, exhaustive=True)
        assert rep["passed"] and rep["cases"] > 0


def test_integral_conjugation_sampled():
    from loopzip.suites import integral_conjugation_checks, zip_inclusion_checks

    for spec, weights in [(F2, (1, 1, 0)), (F3, (1, 0))]:
        mu = Cocharacter(weights)
        rep = integral_conjugation_checks(spec, mu, 6, 100, 0, exhaustive=False)
        assert rep["passed"]
        rep = zip_inclusion_checks(spec, mu, 6, 100, 0)
        assert rep["passed"]


def test_minuscule_dichotomy():
    from loopzip.suites import minuscule_check

    rep = minuscule_check(F2, Cocharacter((1, 0)), 6, 60, 0)
    assert rep["minuscule"] and rep["passed"]
    rep = minuscule_check(F2, Cocharacter((2, 0)), 6, 60, 0)
    assert not rep["minuscule"]
    assert rep["witness_in_kernel"] and rep["witness_escapes"] and rep["passed"]


def test_gl_cache_does_not_alias_dead_specs():
    # a cache keyed by object identity hands a dead field's entry to a new
    # field that reuses its address
    import gc

    for _ in range(50):
        for p, order in ((2, 6), (3, 48)):
            spec = FieldSpec(p, 1)
            assert len(enumerate_gl_flat(spec, 2)) == order
            del spec
            gc.collect()
