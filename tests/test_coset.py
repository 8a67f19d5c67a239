import itertools
import random

import pytest

from loopzip.errors import BudgetExceeded, InsufficientPrecision, WrongCell
from loopzip.gf import FieldSpec
from loopzip.grpdata import (
    Cocharacter,
    enumerate_gl_flat,
    random_gl_flat,
    random_k1_mat,
)
from loopzip.coset import (
    _left_half,
    _right_half,
    canonical_flat,
    class_census,
    class_of,
    default_precision,
    embed_after_mu,
    embed_before_mu,
    embedding_fiber_report,
    kernel_invariance_report,
    pair_matrix,
    prozip_invariance_report,
    verify_class_bijection,
    witt_census_report,
)
from loopzip.matring import (
    Mat,
    flat_identity,
    flat_inverse,
    flat_invertible,
    flat_mul,
    snf_residues,
)
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction

from laurent_oracle import mu_matrix
from coset_oracle import (
    census_transversal_check,
    finite_model_partition,
    lift,
    MIXED_CENSUS_CASES,
    oracle_canonical_flat,
    oracle_class_census,
    oracle_left,
    oracle_pair_matrix,
    oracle_right,
    outcome,
    pair_floor,
    pair_mismatches,
    pipeline_factorization_sweep,
    PIPELINE_CASES,
    ring_one,
    transversal_check,
)
from orbits_oracle import enumerate_unipotent_flat, enumerate_zip_pairs_flat

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
MU = Cocharacter((1, 0))


def test_pair_matrix_identity_pair():
    x = pair_matrix(MU, flat_identity(2), flat_identity(2), LaurentElt.one(F2, 6))
    target = mu_matrix(MU, LaurentElt.one(F2, 6))
    assert x.congruent_mod(target, x.min_precision())


def test_pair_matrix_levi_pair_commutes():
    m = (2, 0, 0, 1)
    x = pair_matrix(MU, m, m, LaurentElt.one(F3, 6))
    target = mu_matrix(MU, LaurentElt.one(F3, 6))
    assert x.congruent_mod(target, x.min_precision())


def test_pair_matrix_explicit_product():
    g = (1, 1, 0, 1)
    one = LaurentElt.one(F2, 6)
    x = pair_matrix(MU, g, flat_identity(2), one)
    # g^(-1) mu(t): rows of g^(-1) scale the diagonal columns
    gi = flat_inverse(F2, 2, g)
    expect = lift(one, 2, gi) * mu_matrix(MU, one)
    assert x == expect


# every pair of GL2(F2) in every GL2 weight, of GL1(F3), and of GL2(F3) in one
# weight per ring, and a seeded slice of GL3(F2) and GL2(F4); (-1, -1) makes
# Witt sums whose leading digits cancel, so that the sum must be stripped
PAIR_CASES = (
    [(2, w, ring, None) for w in [(1, 0), (1, -1), (2, -1), (0, -2), (-1, -1)]
     for ring in ("laurent", "witt")]
    + [(3, w, ring, None) for w in [(1,), (-1,)] for ring in ("laurent", "witt")]
    + [(3, (1, -1), "laurent", None), (3, (1, 0), "witt", None)]
    + [(2, w, ring, 200) for w in [(1, 1, 0), (2, 1, 0), (1, 0, -1)] for ring in ("laurent", "witt")]
    + [(4, w, ring, 300) for w in [(1, 0), (2, -1)] for ring in ("laurent", "witt")]
)


@pytest.mark.parametrize("q, weights, ring, limit", PAIR_CASES)
def test_closed_pair_matrix_matches_the_product(q, weights, ring, limit):
    # each entry's stored window and coefficients (Witt: e, known and the
    # coordinates) equal those of lift(g^(-1)) mu_matrix lift(h), at the
    # floor window and at the pipeline's working window; one window below
    # the floor raises the same error on both forms
    mu = Cocharacter(weights)
    spec = FieldSpec.for_q(q)
    gl = enumerate_gl_flat(spec, mu.n)
    pairs = list(itertools.product(gl, gl))
    if limit is not None:
        pairs = random.Random(q * 100 + mu.n).sample(pairs, limit)
    floor = pair_floor(mu, ring)
    work = default_precision(mu) if ring == "laurent" else max(floor, 3)
    for prec in sorted({floor, work}):
        assert pair_mismatches(pair_matrix, mu, ring_one(spec, ring, prec), pairs) == 0
    if floor > 1:
        one = ring_one(spec, ring, floor - 1)
        g, h = pairs[-1]
        got = outcome(pair_matrix, mu, g, h, one)
        assert got[0] == "InsufficientPrecision"
        assert got == outcome(oracle_pair_matrix, mu, g, h, one)


@pytest.mark.parametrize("weights, ring, prec, message", [
    ((2, 0), "laurent", 2, "window 2 cannot represent pi^2"),
    ((2, 0), "witt", 2, "window 2 cannot represent pi^2"),
    ((0, -3, -4), "witt", 3, "denominator p^3 leaves no precision at length 3"),
])
def test_pair_matrix_raises_what_mu_matrix_raises(weights, ring, prec, message):
    # the weights are checked before any entry is built: at (0, -3, -4) this
    # pair's first entry, 1 + p^-3 + p^-4, would fail on p^4 instead
    mu = Cocharacter(weights)
    one = ring_one(F2, ring, prec)
    if mu.n == 2:
        g, h = (1, 1, 0, 1), (1, 0, 0, 1)
    else:
        g, h = (1, 1, 1, 0, 1, 0, 0, 0, 1), (1, 0, 0, 1, 1, 0, 1, 0, 1)
    for build in (lambda: pair_matrix(mu, g, h, one), lambda: mu_matrix(mu, one)):
        with pytest.raises(InsufficientPrecision) as exc:
            build()
        assert str(exc.value) == message


def test_pair_matrix_and_mixed_census_make_no_matrix_product(monkeypatch):
    # the closed form multiplies no Mat: count Mat.__mul__ calls
    calls = []
    real = Mat.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Mat, "__mul__", counting)
    mu = Cocharacter((1, 1, 0))
    g, h = (1, 1, 0, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 0, 0, 1, 1)
    for one in (LaurentElt.one(F2, 6), WittFraction.one(WittCtx.get(F2, 3))):
        pair_matrix(mu, g, h, one)
    assert calls == []
    rep = witt_census_report(MU, F2, 3, 6)
    assert rep["pointwise_equal"] and calls == []
    # the counter itself counts
    lift(LaurentElt.one(F2, 6), 2, g[:4]) * mu_matrix(MU, LaurentElt.one(F2, 6))
    assert calls == [1]


def test_class_of_mu_is_identity_pair():
    x = mu_matrix(MU, LaurentElt.one(F2, 6))
    c = class_of(x, MU)
    assert c == (flat_identity(2), flat_identity(2))


def test_class_of_wrong_cell():
    x = mu_matrix(Cocharacter((2, 0)), LaurentElt.one(F2, 8))
    with pytest.raises(WrongCell):
        class_of(x, Cocharacter((1, 1)))


def test_kernel_invariance_explicit():
    rng = random.Random(12)
    one = LaurentElt.one(F2, 6)
    x = mu_matrix(MU, one)
    for _ in range(100):
        k1 = random_k1_mat(one, 2, rng)
        k2 = random_k1_mat(one, 2, rng)
        c = class_of(k1 * x * k2, MU)
        assert c == (flat_identity(2), flat_identity(2))


def test_round_trip_all_pairs_gl2_f2():
    one = LaurentElt.one(F2, 6)
    for gf in enumerate_gl_flat(F2, 2):
        for hf in enumerate_gl_flat(F2, 2):
            c = class_of(pair_matrix(MU, gf, hf, one), MU)
            assert c == canonical_flat(F2, MU, gf, hf)


def test_canonicalization_reproducible():
    pairs = enumerate_zip_pairs_flat(F2, MU)
    gl = enumerate_gl_flat(F2, 2)
    for gf, hf in [(g, h) for g in gl for h in gl][:10]:
        rep = canonical_flat(F2, MU, gf, hf)
        for pm, pp in pairs:
            moved = (
                flat_mul(F2, 2, flat_inverse(F2, 2, pm), gf),
                flat_mul(F2, 2, flat_inverse(F2, 2, pp), hf),
            )
            assert canonical_flat(F2, MU, *moved) == rep


# (q, weights, sampled pairs or None for every pair)
FULL_ORBIT_CASES = [
    (2, (1, 0), None),
    (2, (0, 0), None),
    (3, (1, 0), None),
    (4, (1, 0), 300),
    (2, (1, 1, 0), 300),
    (2, (2, 1, 0), 300),
]


@pytest.mark.parametrize(
    "q,weights,samples", FULL_ORBIT_CASES,
    ids=[f"q{q}-mu{''.join(map(str, w))}" for q, w, _ in FULL_ORBIT_CASES],
)
def test_canonicalization_matches_full_group_orbit(q, weights, samples):
    """The canonical pair is the definition: the least pair over the orbit
    under every element of the enumerated zip group."""
    from loopzip.matring import flat_mul

    spec = FieldSpec.for_q(q)
    mu = Cocharacter(weights)
    n = mu.n
    full = enumerate_zip_pairs_flat(spec, mu)
    gl = enumerate_gl_flat(spec, n)
    if samples is None:
        pairs = [(g, h) for g in gl for h in gl]
    else:
        rng = random.Random(q * 100 + n)
        pairs = [(rng.choice(gl), rng.choice(gl)) for _ in range(samples)]
    for gf, hf in pairs:
        orbit = {(flat_mul(spec, n, pm, gf), flat_mul(spec, n, pp, hf)) for pm, pp in full}
        assert len(orbit) == len(full)  # the zip group acts freely
        assert min(orbit) == canonical_flat(spec, mu, gf, hf)


@pytest.mark.parametrize(
    "q,weights", [(2, (1, 0)), (3, (1, 0)), (2, (1, 1, 0))],
    ids=["q2-mu10", "q3-mu10", "q2-mu110"],
)
def test_class_census_is_the_orbit_set(q, weights):
    from loopzip.grpdata import zip_group_order

    spec = FieldSpec.for_q(q)
    mu = Cocharacter(weights)
    census = class_census(mu, spec)
    zip_order = zip_group_order(mu, q)
    assert list(census.items()) == list(oracle_class_census(mu, spec).items())
    assert list(census) == sorted(set(census))
    assert all(canonical_flat(spec, mu, g, h) == (g, h) for g, h in census)
    assert len(census) == len(enumerate_gl_flat(spec, mu.n)) ** 2 // zip_order
    assert set(census.values()) == {zip_order}


# (q, weights, seeded sample size or None for every g in G)
DESCENT_CASES = (
    [(q, w, None) for q in (2, 3, 4, 5) for w in ((1, 0), (2, 0), (0, 0))]
    + [(2, w, None) for w in ((1, 1, 0), (1, 0, 0), (2, 1, 0), (0, 0, 0))]
    + [(3, (1, 1, 0), 300), (3, (2, 1, 0), 300)]
)


@pytest.mark.parametrize(
    "q,weights,samples", DESCENT_CASES,
    ids=[f"q{q}-mu{''.join(map(str, w))}" for q, w, _ in DESCENT_CASES],
)
def test_row_descent_matches_min_over_products(q, weights, samples):
    """canonical_flat(g, h) = (left(g), right(Levi(p) h)), so comparing both
    echelon halves with the oracle on every g covers every pair."""
    spec = FieldSpec.for_q(q)
    mu = Cocharacter(weights)
    n = mu.n
    gl = enumerate_gl_flat(spec, n)
    rng = random.Random(1000 * q + sum(weights))
    if samples is not None:
        gl = [rng.choice(gl) for _ in range(samples)]
    ident = flat_identity(n)
    mismatches = sum(_left_half(spec, mu, g, ident) != oracle_left(spec, mu, g) for g in gl)
    mismatches += sum(_right_half(spec, mu, g) != oracle_right(spec, mu, g) for g in gl)
    pairs = [(rng.choice(gl), rng.choice(gl)) for _ in range(100)]
    mismatches += sum(
        canonical_flat(spec, mu, g, h) != oracle_canonical_flat(spec, mu, g, h)
        for g, h in pairs
    )
    assert mismatches == 0


# (q, weights, seeded sample of g): past the sizes above, where F_8 and F_9
# have negation and inverse tables that are not the identity and n = 4 has
# up to four blocks
LIFTED_CASES = [(8, (1, 0), 60), (9, (1, 0), 60), (9, (2, -1), 40),
                (2, (1, 1, 0, 0), 30), (2, (3, 2, 1, 0), 60)]


@pytest.mark.parametrize(
    "q,weights,samples", LIFTED_CASES,
    ids=[f"q{q}-mu{','.join(map(str, w))}" for q, w, _ in LIFTED_CASES],
)
def test_echelon_halves_match_min_over_products_at_lifted_sizes(q, weights, samples):
    spec = FieldSpec.for_q(q)
    mu = Cocharacter(weights)
    n = mu.n
    rng = random.Random(q * 10 + n)

    def draw():  # a random element of G, without enumerating G
        while not flat_invertible(spec, n, flat := tuple(rng.randrange(q) for _ in range(n * n))):
            pass
        return flat

    ident = flat_identity(n)
    for g, h in [(draw(), draw()) for _ in range(samples)]:
        g_min, lev = oracle_left(spec, mu, g)
        assert _left_half(spec, mu, g, ident) == (g_min, lev)
        assert _left_half(spec, mu, g, h) == (g_min, flat_mul(spec, n, lev, h))
        assert _right_half(spec, mu, h) == oracle_right(spec, mu, h)
        assert canonical_flat(spec, mu, g, h) == oracle_canonical_flat(spec, mu, g, h)


def test_zip_pair_enumeration_size_gl3():
    from loopzip.grpdata import zip_group_order

    mu3 = Cocharacter((1, 1, 0))
    pairs = enumerate_zip_pairs_flat(F2, mu3)
    assert len(pairs) == len(set(pairs)) == zip_group_order(mu3, 2) == 96


def _bijection(mu, spec, prec):
    return verify_class_bijection(mu, spec, prec, class_census(mu, spec))


def test_bijection_reports():
    rep = _bijection(MU, F2, 6)
    assert rep["orbit_count"] == rep["class_count"] == 9
    assert rep["round_trip"] and rep["injective"] and rep["surjective"]
    rep = _bijection(Cocharacter((0, 0)), F2, 6)
    assert rep["class_count"] == 6  # the trivial-weights cell is G itself
    rep = _bijection(Cocharacter((2, 0)), F2, 6)
    assert rep["injective"] and rep["class_count"] == 9


def test_bijection_fails_on_a_census_with_a_non_canonical_pair():
    census = class_census(MU, F2)
    extra = next((g, h) for g in enumerate_gl_flat(F2, 2) for h in enumerate_gl_flat(F2, 2)
                 if (g, h) not in census)
    rep = verify_class_bijection(MU, F2, 6, {**census, extra: 2})
    assert rep["name"] == "class-orbit-bijection"
    assert rep["round_trip"] is False and rep["surjective"] is False
    assert rep["passed"] is False


def _class_mover(monkeypatch, moves):
    """Patch coset.class_of so that it returns a sentinel for the first class
    it computes on a matrix that `moves` selects, and for every later one equal to it."""
    import loopzip.coset as coset

    real = coset.class_of
    moved = []

    def class_of(x, mu):
        c = real(x, mu)
        if not moves(x):
            return c
        if not moved:
            moved.append(c)
        return "moved" if c == moved[0] else c

    monkeypatch.setattr(coset, "class_of", class_of)
    return moved


def test_kernel_invariance_fails_when_one_class_moves(monkeypatch):
    moved = _class_mover(monkeypatch, lambda x: True)
    rep = kernel_invariance_report(MU, LaurentElt.one(F3, 6), 20, seed=5)
    assert moved and 0 < rep["passed_samples"] < 20
    assert rep["name"] == "kernel-bi-invariance"
    assert rep["passed"] is False


def test_witt_census_fails_when_one_witt_class_moves(monkeypatch):
    moved = _class_mover(monkeypatch, lambda x: isinstance(x.rows[0][0], WittFraction))
    rep = witt_census_report(MU, F2, 3, 6)
    assert moved and rep["pointwise_equal"] is False and rep["census_equal"] is False
    assert rep["passed"] is False


def test_embedding_fibers_fail_when_one_point_moves(monkeypatch):
    import loopzip.coset as coset

    real = coset.embed_before_mu
    ident = flat_identity(2)
    monkeypatch.setattr(coset, "embed_before_mu",
                        lambda spec, mu, g: "moved" if g == ident else real(spec, mu, g))
    rep = embedding_fiber_report(MU, F2)
    assert rep["alpha_fiber_sizes"] == [1, 2] and rep["beta_ok"]
    assert rep["passed"] is False


def test_bijection_budget():
    # GL_3(F_4) with mu (1,0,0) has 181,440^2 / 138,240 = 238,140 classes
    with pytest.raises(BudgetExceeded):
        _bijection(Cocharacter((1, 0, 0)), FieldSpec.get(2, 2), 6)


@pytest.mark.parametrize("build", [
    lambda: class_census(Cocharacter((2, 1, 0)), F3),  # 21,632 classes
    lambda: witt_census_report(MU, FieldSpec.get(2, 2), 3, 6),  # 180^2 = 32,400 pairs
], ids=["census-gl3-f3", "mixed-gl2-f4"])
def test_class_cap_admits_the_largest_targets(build, monkeypatch):
    import loopzip.coset as coset

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # the budget is checked before G is enumerated, so reaching it means admitted
    monkeypatch.setattr(coset, "enumerate_gl_flat", admitted)
    with pytest.raises(Admitted):
        build()


def test_precision_stability():
    rng = random.Random(77)
    gl = enumerate_gl_flat(F3, 2)
    for _ in range(20):
        g = gl[rng.randrange(len(gl))]
        h = gl[rng.randrange(len(gl))]
        c1 = class_of(pair_matrix(MU, g, h, LaurentElt.one(F3, 6)), MU)
        c2 = class_of(pair_matrix(MU, g, h, LaurentElt.one(F3, 8)), MU)
        assert c1 == c2


def test_rescaling_classes():
    # representative-for-representative between the censuses
    census1 = class_census(MU, F2)
    census2 = class_census(Cocharacter((2, 0)), F2)
    assert set(census1) == set(census2)
    for rep_pair in census1:
        mu2 = MU.scaled(2)
        one = LaurentElt.one(F2, default_precision(mu2))
        got = class_of(pair_matrix(mu2, *rep_pair, one), mu2)
        assert got == rep_pair


def test_rescaling_check_fails_when_one_class_moves_only_at_k_mu(monkeypatch):
    # class_of moves one class in the cells of 2 mu and 3 mu and none in the
    # cell of mu, so the bijection at mu passes and the rescaling check fails
    import loopzip.coset as coset
    from loopzip.suites import run_suites

    real = coset.class_of
    moved = []

    def class_of(x, mu):
        c = real(x, mu)
        if mu.weights == MU.weights:
            return c
        moved.append(c)
        return "moved" if c == moved[0] else c

    monkeypatch.setattr(coset, "class_of", class_of)
    checks = run_suites(["psi"], {"q": 2, "mu": [1, 0], "prec": 6, "samples": 5,
                                  "seed": 0})["checks"]
    verdicts = {c["name"]: c["passed"] for c in checks}
    assert moved
    assert verdicts == {"class-orbit-bijection": True, "kernel-bi-invariance": True,
                        "embedding-fibers": True, "rescaling-representative-match": False}


@pytest.mark.parametrize("weights", [(1, -1), (0, -1), (2, -1), (1, 0, -1), (1, 0), (2, 0)])
def test_default_precision_covers_negative_weights(weights):
    # a pair matrix built at window P is known to P + min(0, d_min), which
    # class_of admits from P = max(0, d_max) - min(0, d_min) + 1 on; the
    # suites' window is at or above that, and one window below it is refused
    mu = Cocharacter(weights)
    least = max(0, *weights) - min(0, *weights) + 1
    assert default_precision(mu) >= least
    ident = flat_identity(mu.n)
    for prec in (least, default_precision(mu)):
        x = pair_matrix(mu, ident, ident, LaurentElt.one(F2, prec))
        assert class_of(x, mu) == canonical_flat(F2, mu, ident, ident)
    with pytest.raises(InsufficientPrecision):
        class_of(pair_matrix(mu, ident, ident, LaurentElt.one(F2, least - 1)), mu)


def test_rescaling_gl3_block_weights():
    mu = Cocharacter((1, 1, 0))
    census = class_census(mu, F2)
    for factor in (2, 3):
        mu_k = mu.scaled(factor)
        one = LaurentElt.one(F2, default_precision(mu_k))
        sample = sorted(census)[:25]
        for rep_pair in sample:
            got = class_of(pair_matrix(mu_k, *rep_pair, one), mu_k)
            assert got == rep_pair


def test_embeddings():
    e = flat_identity(2)
    ca = embed_before_mu(F2, MU, e)
    cb = embed_after_mu(F2, MU, e)
    assert ca == cb
    assert ca == (flat_identity(2), flat_identity(2))
    rep = embedding_fiber_report(MU, F2)
    assert rep["alpha_ok"] and rep["beta_ok"]
    assert rep["alpha_fiber_sizes"] == [2] and rep["beta_fiber_sizes"] == [2]


def test_embedding_fibers_are_unipotent_cosets():
    # alpha(g) = alpha(g') exactly when g' lies in g U_-
    from collections import defaultdict

    fibers = defaultdict(set)
    for gf in enumerate_gl_flat(F2, 2):
        fibers[embed_before_mu(F2, MU, gf)].add(gf)
    umin = enumerate_unipotent_flat(F2, MU, -1)
    for members in fibers.values():
        g0 = min(members)
        coset = {flat_mul(F2, 2, g0, u) for u in umin}
        assert coset == members


def test_sampled_reports():
    rep = kernel_invariance_report(MU, LaurentElt.one(F3, 6), 60, seed=5)
    assert rep["passed_samples"] == 60
    assert rep["precision"] == 6 and "witt_length" not in rep
    rep = kernel_invariance_report(MU, WittFraction.one(WittCtx.get(F2, 3)), 30, seed=5)
    assert rep["passed_samples"] == 30
    assert rep["witt_length"] == 3 and "precision" not in rep


def test_witt_class_of_p_mu():
    wctx = WittCtx.get(F2, 3)
    x = mu_matrix(MU, WittFraction.one(wctx))
    c = class_of(x, MU)
    assert c == (flat_identity(2), flat_identity(2))


@pytest.mark.parametrize("p,length,weights", [(5, 2, (1, 0)), (2, 2, (1, 0)), (2, 3, (2, 0))],
                         ids=["p5-N2", "p2-N2", "mu2,0-N3"])
def test_class_of_refuses_witt_matrices_known_only_to_d_max(p, length, weights):
    # p^mu classifies at any length that holds it, whatever p and the weights;
    # with its unit entry cut to the window p^(d_max) it is refused
    mu, top = Cocharacter(weights), max(weights)
    one = WittFraction.one(WittCtx.get(FieldSpec.get(p, 1), length))
    x = mu_matrix(mu, one)
    assert class_of(x, mu) == (flat_identity(2), flat_identity(2))
    cut = [list(r) for r in x.rows]
    cut[1][1] = WittFraction(one.ctx, 0, one.num, top)
    with pytest.raises(InsufficientPrecision) as exc:
        class_of(Mat(cut), mu)
    assert str(exc.value) == f"precision {top} below safe floor {top + 1} for weights {weights}"


def test_class_of_refuses_a_pair_matrix_known_only_to_d_max():
    # at (1, -1) and P = 2 every pair matrix of GL_2(F_2) is known only to
    # t^1 = t^(d_max); 20 of the 36 would raise NotInvertible in the
    # decomposition (a failed check, where the window is what is short)
    mu = Cocharacter((1, -1))
    one = LaurentElt.one(F2, 2)
    gl = enumerate_gl_flat(F2, 2)
    for g, h in itertools.product(gl, gl):
        with pytest.raises(InsufficientPrecision,
                           match=r"^precision 1 below safe floor 2 for weights \(1, -1\)$"):
            class_of(pair_matrix(mu, g, h, one), mu)


SWEEP_WEIGHTS = [(0, 0), (1, 0), (1, 1), (1, -1), (0, -1), (-1, -1), (2, 0), (2, 1), (2, -1),
                 (0, -2), (3, 0), (1, 0, 0), (1, 0, -1)]


@pytest.mark.parametrize("ring", ["laurent", "witt"])
def test_class_of_decides_every_perturbed_pair_matrix_it_admits(ring):
    # k1 x k2 for the pair matrix x of random g, h and random k1, k2 in K_1,
    # at every window 1..5 that holds mu: admitted when known past pi^(d_max),
    # and then of the class of (g, h), else refused with InsufficientPrecision
    admitted = refused = 0
    for q in (2, 3, 4):
        spec = FieldSpec.for_q(q)
        for weights in SWEEP_WEIGHTS:
            mu, rng = Cocharacter(weights), random.Random(f"{ring}{q}{weights}")
            for prec in range(pair_floor(mu, ring), 6):
                one = ring_one(spec, ring, prec)
                for _ in range(4):
                    g, h = random_gl_flat(spec, mu.n, rng), random_gl_flat(spec, mu.n, rng)
                    x = random_k1_mat(one, mu.n, rng) * pair_matrix(mu, g, h, one)
                    x = x * random_k1_mat(one, mu.n, rng)
                    if x.min_precision() > max(0, *weights):
                        assert class_of(x, mu) == canonical_flat(spec, mu, g, h)
                        admitted += 1
                    else:
                        with pytest.raises(InsufficientPrecision):
                            class_of(x, mu)
                        refused += 1
    assert admitted and refused  # 528 and 84 Laurent, 528 and 36 Witt


def test_witt_census_matches_laurent():
    rep = witt_census_report(MU, F2, 3, 6)
    assert rep["census_equal"] and rep["pointwise_equal"]
    assert rep["laurent_classes"] == rep["witt_classes"] == 9


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_torus_transversal_meets_each_orbit_once(q, n):
    # |G|^2 / (q - 1)^n pairs, and the orbit of every g under T(F_q) walked in full
    pairs, expected, off = transversal_check(q, n)
    assert (pairs, off) == (expected, 0)


@pytest.mark.parametrize("q, weights", [
    (q, w) for q, w in MIXED_CENSUS_CASES if q == 2 and len(w) == 2] + [(3, (1, 0))])
def test_census_classifies_each_key_once_and_matches_the_per_pair_loop(q, weights):
    # one class_of per ring for each orbit of the diagonal torus on G x G, the
    # key its visited pair: 36 on GL_2(F_2), where the torus is trivial, and
    # 576 of 2,304 pairs on GL_2(F_3); every pair's class from the per-pair
    # loop is its key's; tests/coset_oracle.py checks every census suite witt admits
    got = census_transversal_check(q, weights)
    assert {ring: (calls, bad) for ring, (calls, _, bad) in got.items()} == {
        ring: ({2: 36, 3: 576}[q], 0) for ring in ("laurent", "witt")}


def test_witt_pair_matrix_reduces_to_inputs():
    rng = random.Random(9)
    wctx = WittCtx.get(F2, 3)
    gl = enumerate_gl_flat(F2, 2)
    g = gl[rng.randrange(len(gl))]
    x = pair_matrix(MU, g, flat_identity(2), WittFraction.one(wctx))
    _, d, _ = snf_residues(x)
    assert d == (1, 0)


def test_prozip_invariance():
    rep = prozip_invariance_report(MU, F2, 6, 50, seed=3)
    assert rep["passed_samples"] == 50
    assert rep["name"] == "conjugate-pair-invariance" and rep["passed"]


def test_prozip_invariance_fails_when_a_sample_is_not_congruent(monkeypatch):
    real = Mat.congruent_mod
    calls = []

    def congruent_mod(self, other, k):
        calls.append(k)
        return len(calls) != 3 and real(self, other, k)

    monkeypatch.setattr(Mat, "congruent_mod", congruent_mod)
    rep = prozip_invariance_report(MU, F2, 6, 10, seed=3)
    assert rep["passed_samples"] == 9
    assert rep["passed"] is False


def test_prozip_levi_pair_commutes_exactly():
    # a Levi-valued element commutes with the diagonal entry for entry,
    # and the moved product agrees on its whole precision window
    rng = random.Random(19)
    from loopzip.grpdata import conj_by_mu, random_integral_mat

    m = lift(LaurentElt.one(F3, 6), 2, (2, 0, 0, 1))
    mt = mu_matrix(MU, LaurentElt.one(F3, 6))
    assert m * mt == mt * m
    h = conj_by_mu(m, MU, -1)
    x = random_integral_mat(F3, 2, 6, rng)
    y = random_integral_mat(F3, 2, 6, rng)
    base = x.inverse() * mt * y
    moved = (h.inverse() * x).inverse() * mt * (m.inverse() * y)
    window = min(base.min_precision(), moved.min_precision())
    assert window >= 5  # conjugating through mu costs at most one digit
    assert base.congruent_mod(moved, window)


def test_prozip_identity_pair_trivial():
    mt = mu_matrix(MU, LaurentElt.one(F2, 6))
    rng = random.Random(4)
    from loopzip.grpdata import random_integral_mat

    one = Mat.identity(2, LaurentElt.one(F2, 6))
    x = random_integral_mat(F2, 2, 6, rng)
    y = random_integral_mat(F2, 2, 6, rng)
    base = x.inverse() * mt * y
    moved = (one.inverse() * x).inverse() * mt * (one.inverse() * y)
    assert base.congruent_mod(moved, min(base.min_precision(), moved.min_precision()))


def test_class_pipeline_inputs_meet_no_dropped_remainder():
    # the census pair matrices at mu, 2 mu and 3 mu and the K1 x K1 products,
    # in both rings: a seeded twentieth of the inputs, with 20 products per
    # case, where tests/coset_oracle.py checks them all with 200 (6,893
    # Laurent and 6,193 Witt decompositions, none flagged)
    counts = pipeline_factorization_sweep(PIPELINE_CASES, 20, 0.05, 1)
    assert {ring: flagged for ring, (_, flagged, _) in counts.items()} == {"laurent": 0, "witt": 0}
    assert min(decomposed for decomposed, _, _ in counts.values()) >= 200  # 250 and 249


def test_k1_double_cosets_of_a_finite_model_are_the_class_of_fibres():
    # the cell of (0,0) in GL_2(F_2[t]/t^3) is GL_2 of that ring: 6 * 16^2
    # points, whose K1 x K1 orbits are the 6 classes, one per element of
    # GL_2(F_2); tests/coset_oracle.py runs (1,0) at P = 4 (18,432 points, 9)
    assert finite_model_partition((0, 0), 3) == (1536, 6, 6, 0)
    # the cell of (1,0) at windows known past t^1 but under the Cartan bound
    # of 4: its K1 x K1 orbits are the 9 classes, none split
    assert finite_model_partition((1, 0), 2) == (72, 9, 9, 0)
    assert finite_model_partition((1, 0), 3) == (1152, 9, 9, 0)
