import itertools
import random

import pytest

from loopzip.coset import class_census, class_of, default_precision, pair_matrix
from loopzip.errors import InsufficientPrecision, NotInvertible
from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter, enumerate_gl_flat, random_integral_mat, random_k1_mat
from loopzip.matring import (
    Mat,
    flat_identity,
    flat_inverse,
    flat_invertible,
    flat_mul,
    flat_residue,
    snf_residues,
)
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction
from laurent_oracle import (diagonal, diagonalize_mismatches, factorization_overclaims,
                            factorization_sweep, from_coeff_list, full_diagonalize,
                            full_inverse, inverse_mismatches, product_mismatches, stored,
                            sub_mul_mismatches)
from witt_oracle import p_power, witt_mat

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)


def lau(spec, codes_by_entry, prec):
    return Mat([
        [from_coeff_list(spec, v, codes, prec) for v, codes in row]
        for row in codes_by_entry
    ])


def t_diag(spec, weights, prec):
    return diagonal([LaurentElt.t_power(spec, d, prec) for d in weights])


def test_identity_multiplication():
    ident = Mat.identity(2, LaurentElt.one(F2, 5))
    a = random_integral_mat(F2, 2, 5, random.Random(0))
    assert a * ident == a and ident * a == a


def test_diag_t_times_diag_tinv():
    d1 = t_diag(F2, (1, 0), 6)
    d2 = diagonal([LaurentElt.t_power(F2, -1, 4), LaurentElt.one(F2, 4)])
    prod = d1 * d2
    ident = Mat.identity(2, LaurentElt.one(F2, prod.min_precision()))
    assert prod.congruent_mod(ident, prod.min_precision())


def test_permutation_matrices_compose():
    swap = (0, 1, 1, 0)
    assert flat_mul(F3, 2, swap, swap) == flat_identity(2)


def test_flat_identity_is_one_cached_tuple_per_n():
    hits = flat_identity.cache_info().hits
    assert flat_identity(3) is flat_identity(3) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert flat_identity.cache_info().hits > hits


def test_fq_inverse_examples():
    ident = flat_identity(2)
    assert flat_inverse(F3, 2, ident) == ident
    assert flat_inverse(F3, 2, (1, 1, 0, 1)) == (1, 2, 0, 1)
    with pytest.raises(NotInvertible):
        flat_inverse(F3, 2, (1, 1, 2, 2))


def test_laurent_inverse():
    d = t_diag(F2, (1, 0), 6)
    dinv = d.inverse()
    assert dinv.rows[0][0].valuation() == -1
    rng = random.Random(1)
    for _ in range(25):
        k = random_integral_mat(F2, 3, 6, rng)
        prod = k * k.inverse()
        ident = Mat.identity(3, LaurentElt.one(F2, prod.min_precision()))
        assert prod.congruent_mod(ident, prod.min_precision())


def test_reduce_examples():
    m = lau(F2, [[(0, [1]), (1, [1])], [(1, [1]), (0, [1])]], 4)
    assert flat_residue(m) == (1, 0, 0, 1)
    d = t_diag(F2, (1, 0), 4)
    assert flat_residue(d) == (0, 0, 0, 1)


def test_snf_diag_examples():
    a, d, b = full_diagonalize(t_diag(F2, (1, 0), 6), False)
    assert d == (1, 0)
    assert flat_residue(a) == flat_identity(2)
    assert flat_residue(b) == flat_identity(2)
    assert all(x.valuation() in (0, None) or x.valuation() >= 0
               for r in a.rows for x in r)

    antidiag = lau(F2, [[(0, []), (1, [1])], [(1, [1]), (0, [])]], 5)
    a, d, b = full_diagonalize(antidiag, False)
    assert d == (1, 1)

    upper = lau(F2, [[(1, [1]), (0, [1])], [(0, []), (0, [1])]], 6)
    a, d, b = full_diagonalize(upper, False)
    assert d == (1, 0)
    prod = a * t_diag(F2, d, 6) * b
    assert prod.congruent_mod(upper, min(prod.min_precision(), 6))


def _random_k(spec, n, prec, rng):
    return random_integral_mat(spec, n, prec, rng)


@pytest.mark.parametrize("spec,n,weights", [
    (F2, 2, (1, 0)),
    (F2, 2, (2, 0)),
    (F3, 2, (1, 1)),
    (F2, 3, (1, 0, 0)),
    (F3, 3, (1, 1, 0)),
    (F2, 2, (1, -1)),
])
def test_snf_remultiplication_oracle(spec, n, weights):
    prec = 6
    rng = random.Random(hash(weights) & 0xFFFF)
    for _ in range(60):
        k1 = _random_k(spec, n, prec, rng)
        k2 = _random_k(spec, n, prec, rng)
        x = k1 * t_diag(spec, weights, prec) * k2
        a, d, b = full_diagonalize(x, False)
        assert d == tuple(sorted(weights, reverse=True))
        assert snf_residues(x) == (flat_residue(a), d, flat_residue(b))
        prod = a * t_diag(spec, d, prec) * b
        w = min(prod.min_precision(), x.min_precision())
        assert prod.congruent_mod(x, w)
        # factors are integral with unit reduction
        assert a.is_integral() and b.is_integral()
        assert flat_invertible(spec, n, flat_residue(a))
        assert flat_invertible(spec, n, flat_residue(b))


def test_snf_bulk_oracle_1000():
    rng = random.Random(99)
    count = 0
    menu = [(1, 0), (1, 1), (2, 0), (2, 1), (0, 0)]
    while count < 1000:
        weights = menu[rng.randrange(len(menu))]
        prec = 6
        k1 = _random_k(F2, 2, prec, rng)
        k2 = _random_k(F2, 2, prec, rng)
        x = k1 * t_diag(F2, weights, prec) * k2
        a, d, b = full_diagonalize(x, False)
        assert d == weights
        assert snf_residues(x) == (flat_residue(a), d, flat_residue(b))
        prod = a * t_diag(F2, d, prec) * b
        assert prod.congruent_mod(x, min(prod.min_precision(), x.min_precision()))
        count += 1


def test_mul_keeps_sharp_precision_on_stored_zeros():
    # a stored-zero window times a negative-valuation unit is provably
    # zero up to prec + val, not just up to the generic min-rule bound
    zero = LaurentElt.zero(F2, 6)
    c = LaurentElt.t_power(F2, -2, 2)
    prod = zero * c
    assert prod.prec == 4 and prod.valuation() is None


def test_snf_wide_gap_on_gl3_minor():
    # clearing a pivot of valuation 2 must not erase the last minor entry
    from loopzip.coset import pair_matrix
    from loopzip.grpdata import Cocharacter

    mu = Cocharacter((2, 2, 0))
    g = (0, 0, 1, 0, 1, 0, 1, 0, 0)
    h = (0, 0, 1, 0, 1, 1, 1, 0, 0)
    x = pair_matrix(mu, g, h, LaurentElt.one(F2, 6))
    a, d, b = full_diagonalize(x, False)
    assert d == (2, 2, 0)
    assert snf_residues(x) == (flat_residue(a), d, flat_residue(b))
    prod = a * t_diag(F2, d, 6) * b
    assert prod.congruent_mod(x, min(prod.min_precision(), x.min_precision()))


def test_cartan_invariance_of_weights():
    rng = random.Random(17)
    for _ in range(50):
        x = _random_k(F2, 2, 6, rng) * t_diag(F2, (2, 1), 6) * _random_k(F2, 2, 6, rng)
        _, d, _ = snf_residues(x)
        assert d == (2, 1)


def test_witt_snf_agrees_with_laurent():
    wctx = WittCtx.get(F2, 3)
    rng = random.Random(23)
    from loopzip.coset import pair_matrix
    from loopzip.grpdata import Cocharacter, enumerate_gl_flat

    mu = Cocharacter((1, 0))
    gl = enumerate_gl_flat(F2, 2)
    for _ in range(20):
        g = gl[rng.randrange(len(gl))]
        h = gl[rng.randrange(len(gl))]
        _, d_t, _ = snf_residues(pair_matrix(mu, g, h, LaurentElt.one(F2, 6)))
        _, d_p, _ = snf_residues(pair_matrix(mu, g, h, WittFraction.one(wctx)))
        assert d_t == d_p == (1, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_from_codes_on_both_rings(q):
    # the integral element with the given expansion coordinates, at the window of one
    spec = FieldSpec.for_q(q)
    rng = random.Random(q)
    witt_ones = [WittFraction.one(WittCtx.get(spec, length)) for length in (1, 2, 3, 4)]
    for one in [LaurentElt.one(spec, 1), LaurentElt.one(spec, 5)] + witt_ones:
        for _ in range(20):
            codes = [rng.randrange(q) for _ in range(one.prec)]
            x = one.from_codes(codes)
            assert x.residue_code() == codes[0]
            assert x.prec == one.prec and x.is_integral()
            if isinstance(x, LaurentElt):
                assert (x.v, x.codes) == (0, tuple(codes))
            else:
                assert x.ctx.coords(x.num) == tuple(codes)
        for bad in ([0] * (one.prec + 1), [0] * (one.prec - 1),
                    [q] + [0] * (one.prec - 1), [0] * (one.prec - 1) + [-1]):
            with pytest.raises(ValueError):
                one.from_codes(bad)
    for one in witt_ones:
        ctx = one.ctx
        for c in range(q):
            teich = one.from_codes((c,) + (0,) * (ctx.length - 1))
            assert teich.e == 0 and teich.num == ctx._teich[c]


def test_witt_snf_remultiplication():
    wctx = WittCtx.get(F2, 3)
    rng = random.Random(31)
    p_diag = diagonal([p_power(wctx, 1), p_power(wctx, 0)])
    for _ in range(20):
        k1 = random_k1_mat(WittFraction.one(wctx), 2, rng)
        k2 = random_k1_mat(WittFraction.one(wctx), 2, rng)
        x = k1 * p_diag * k2
        a, d, b = full_diagonalize(x, False)
        assert d == (1, 0)
        assert snf_residues(x) == (flat_residue(a), d, flat_residue(b))
        prod = a * diagonal([p_power(wctx, dd) for dd in d]) * b
        assert prod.congruent_mod(x, min(prod.min_precision(), x.min_precision()))


def test_witt_matrix_inverse():
    wctx = WittCtx.get(F2, 3)
    rng = random.Random(53)
    for _ in range(10):
        k = random_k1_mat(WittFraction.one(wctx), 2, rng)
        prod = k * k.inverse()
        ident = Mat.identity(2, WittFraction.one(wctx))
        assert prod.congruent_mod(ident, prod.min_precision())


def test_witt_inverse_skips_a_product_left_of_the_pivot_that_has_no_digits():
    # over W_2(F_4), the full loop's update left of the second pivot has no
    # provable digits and refuses this matrix; nothing reads that entry, so
    # Mat.inverse inverts it
    x = witt_mat(WittCtx.get(FieldSpec.for_q(4), 2), [[(0, (2, 1)), (1, (1, 2))],
                                                      [(0, (1, 2)), (0, (3, 2))]])
    assert repr(x) == ("Mat[(w, 1) + O(p^2), p^-1*(1, w) + O(p^1); "
                       "(1, w) + O(p^2), (1 + w, w) + O(p^2)]")
    assert stored(lambda: full_inverse(x)) == ("InsufficientPrecision",
                                               "product has no provable digits")
    prod = x * x.inverse()
    assert prod.min_precision() == 1
    assert prod.congruent_mod(Mat.identity(2, x.rows[0][0].one_at(1)), 1)


def test_sub_mul_stores_what_product_then_difference_stores():
    cases, bad, errors = sub_mul_mismatches(8000, seed=5)
    assert bad == 0
    assert 0 < errors < cases


def test_fused_product_matches_the_running_sum():
    # Mat.__mul__ stores, or raises, what the running sum of built products
    # stores or raises, on empty windows, poles, stored leading zeros and
    # entries over another field
    cases, bad, errors, shapes = product_mismatches(1500, seed=2)
    assert bad == 0
    assert 0 < errors < cases
    assert shapes == {"empty window", "pole", "stored leading zeros", "mixed fields"}


def test_inverse_matches_the_full_loop_with_poisoned_skips():
    # the same entries, or the same error and message, as the loop that
    # updates every column, once an update left of the pivot that raises
    # leaves a poison entry that no later step may read; the sweep reaches
    # the matrices that the plain full loop refuses and Mat.inverse inverts
    cases, bad, errors, poisoned, returned = inverse_mismatches(2000, seed=7)
    assert bad == poisoned == 0
    assert 0 < errors < cases
    assert returned > 0


def test_snf_matches_the_full_loop_with_poisoned_skips():
    # snf_residues gives what the loop that updates every row and column
    # gives, residues or error and message, once an update outside the
    # trailing submatrix that raises leaves a poison entry; the slice holds
    # Laurent inputs with an empty window and decompositions that the plain
    # full loop refuses
    cases, bad, errors, empty, poisoned, returned = diagonalize_mismatches(2000, seed=1)
    assert bad == poisoned == 0
    assert 0 < errors < cases
    assert empty > 0 and returned > 0


def test_snf_rejects_zero_window_matrix():
    zero = Mat([[LaurentElt.zero(F2, 4)] * 2 for _ in range(2)])
    with pytest.raises(NotInvertible):
        snf_residues(zero)


def test_snf_insufficient_precision():
    # one entry's window ends below the best known valuation
    rows = [
        [LaurentElt.t_power(F2, 2, 6), LaurentElt.zero(F2, 1)],
        [LaurentElt.zero(F2, 6), LaurentElt.t_power(F2, 2, 6)],
    ]
    with pytest.raises(InsufficientPrecision):
        snf_residues(Mat(rows))


def _full_residues(x):
    """The reductions of the a and b that the full loop carries, and d."""
    a, d, b = full_diagonalize(x, False)
    return flat_residue(a), d, flat_residue(b)


def _lau(v, prec, codes):
    return LaurentElt(F2, v, prec, codes)


_MINOR_ZERO = "remaining minor is zero within precision; no finite determinant valuation"


@pytest.mark.parametrize("x, error, message", [
    # equal rows: singular
    (Mat([[_lau(0, 3, [1, 0, 0])] * 2] * 2), NotInvertible, _MINOR_ZERO),
    # zero known to t^1 only, beside entries of valuation 2: no provable pivot
    (Mat([[_lau(0, 1, [0]), _lau(2, 3, [1])], [_lau(2, 3, [1]), _lau(0, 1, [0])]]),
     InsufficientPrecision, "entry window ends at valuation 1, below pivot 2"),
    # over F4 with N = 3 the determinant is not provably a unit in the known digits
    (witt_mat(WittCtx.get(FieldSpec.for_q(4), 3), [[(1, (0, 3, 2)), (0, (1, 2, 3))],
                                                   [(0, (2, 1, 3)), (2, (0, 0, 1))]]),
     NotInvertible, _MINOR_ZERO),
    # 4 J over W_3(F_2): the products of unstripped entries once claimed a
    # digit they did not have, and the decomposition gave d = (2, 2)
    (witt_mat(WittCtx.get(F2, 3), [[(0, (0, 0, 1))] * 2] * 2), NotInvertible, _MINOR_ZERO),
    # its Laurent twin, t^2 J at prec 3
    (Mat([[_lau(0, 3, [0, 0, 1])] * 2] * 2), NotInvertible, _MINOR_ZERO),
], ids=["laurent-singular", "laurent-precision", "witt-F4-N3-minor", "witt-4J", "laurent-t2J"])
def test_snf_residues_refuse_an_undecomposable_matrix(x, error, message):
    with pytest.raises(error) as info:
        snf_residues(x)
    assert str(info.value) == message
    assert stored(lambda: full_diagonalize(x, True)) == (error.__name__, message)


# Witt inputs with p-factors in their denominators, as (q, N, cells (e,
# coordinate codes)), and the residues of the a and b, with the d, that the
# structure-polynomial implementation decomposed them into
_WITT_PINNED = {
    "F4-N3": (4, 3, [[(2, (0, 3, 2)), (0, (2, 2, 3))], [(0, (3, 1, 3)), (1, (0, 2, 1))]],
              ((0, 2, 3, 0), (0, -1), (0, 1, 1, 0))),
    "F3-N4": (3, 4, [[(2, (0, 2, 1, 2)), (0, (1, 1, 0, 2))],
                     [(1, (2, 0, 1, 1)), (0, (0, 0, 2, 1))]],
              ((0, 2, 2, 2), (0, -1), (0, 1, 1, 0))),
}


@pytest.mark.parametrize("case", sorted(_WITT_PINNED))
def test_snf_residues_pinned_on_witt_denominators(case):
    q, length, cells, triple = _WITT_PINNED[case]
    x = witt_mat(WittCtx.get(FieldSpec.for_q(q), length), cells)
    assert snf_residues(x) == triple == _full_residues(x)


def test_precision_floor():
    # the windows the reports print as "precision" keep their values
    assert [default_precision(Cocharacter(w)) for w in ((1, 0), (2, 0), (3, 0), (1, -1))] == [
        6, 6, 8, 7]
    # class_of classifies a matrix known past t^(d_max) and refuses one whose
    # least window is t^(d_max), whichever entry holds it: a unit or a zero
    for weights in ((1, 0), (2, 0)):
        mu, top = Cocharacter(weights), max(weights)
        x = t_diag(F2, weights, top + 1)
        assert class_of(x, mu) == (flat_identity(2), flat_identity(2))
        one = LaurentElt.one(F2, top)
        for (i, j), entry in (((1, 1), one), ((0, 1), one.zero_at(top))):
            cut = [list(r) for r in x.rows]
            cut[i][j] = entry
            with pytest.raises(InsufficientPrecision) as exc:
                class_of(Mat(cut), mu)
            assert str(exc.value) == f"precision {top} below safe floor {top + 1} for weights {weights}"


def test_flat_helpers_match_objects():
    """flat_mul is associative with the identity as unit, and flat_inverse
    is a two-sided inverse for it, on random invertible GL_3(F_3) triples."""
    rng = random.Random(41)
    ident = flat_identity(3)
    for _ in range(30):
        flats = []
        for _ in range(3):
            while True:
                cand = tuple(rng.randrange(3) for _ in range(9))
                if flat_invertible(F3, 3, cand):
                    flats.append(cand)
                    break
        fa, fb, fc = flats
        assert flat_mul(F3, 3, flat_mul(F3, 3, fa, fb), fc) == flat_mul(
            F3, 3, fa, flat_mul(F3, 3, fb, fc))
        assert flat_mul(F3, 3, fa, ident) == flat_mul(F3, 3, ident, fa) == fa
        inv = flat_inverse(F3, 3, fa)
        assert flat_mul(F3, 3, fa, inv) == flat_mul(F3, 3, inv, fa) == ident


def cofactor_det(spec, n, a):
    """Determinant of a flat matrix by cofactor expansion, n <= 3: the oracle
    for the Gauss-Jordan invertibility test."""
    mul, add, neg = spec.mul_table, spec.add_table, spec.neg_table
    if n == 1:
        return a[0]
    if n == 2:
        return add[mul[a[0]][a[3]]][neg[mul[a[1]][a[2]]]]
    t1 = mul[a[0]][add[mul[a[4]][a[8]]][neg[mul[a[5]][a[7]]]]]
    t2 = mul[a[1]][add[mul[a[3]][a[8]]][neg[mul[a[5]][a[6]]]]]
    t3 = mul[a[2]][add[mul[a[3]][a[7]]][neg[mul[a[4]][a[6]]]]]
    return add[add[t1][neg[t2]]][t3]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3),
                                 (5, 2), (8, 2), (9, 2), (3, 3), (9, 1)])
def test_flat_inverse_matches_decode_path_exhaustively(q, n):
    """On every matrix: flat_invertible exactly when the cofactor determinant
    is nonzero, NotInvertible exactly when it is 0, and otherwise a two-sided
    inverse."""
    spec = FieldSpec.for_q(q)
    ident = flat_identity(n)
    singular = 0
    for flat in itertools.product(range(q), repeat=n * n):
        assert flat_invertible(spec, n, flat) == (cofactor_det(spec, n, flat) != 0)
        if cofactor_det(spec, n, flat) == 0:
            singular += 1
            with pytest.raises(NotInvertible):
                flat_inverse(spec, n, flat)
            continue
        inv = flat_inverse(spec, n, flat)
        assert flat_mul(spec, n, flat, inv) == flat_mul(spec, n, inv, flat) == ident
    assert q ** (n * n) - singular == len(enumerate_gl_flat(spec, n))


def test_flat_invertible_beyond_the_cofactor_oracle():
    # n = 4: a permutation matrix times an upper unitriangular one is invertible,
    # and a matrix with two equal rows is not
    rng = random.Random(4)
    for q in (2, 3, 4):
        spec = FieldSpec.for_q(q)
        for _ in range(40):
            perm = rng.sample(range(4), 4)
            p = tuple(int(perm[i] == j) for i in range(4) for j in range(4))
            u = tuple(1 if i == j else rng.randrange(q) if i < j else 0
                      for i in range(4) for j in range(4))
            g = flat_mul(spec, 4, p, u)
            assert flat_invertible(spec, 4, g)
            inv = flat_inverse(spec, 4, g)
            assert flat_mul(spec, 4, g, inv) == flat_mul(spec, 4, inv, g) == flat_identity(4)
            rows = [g[4 * i:4 * i + 4] for i in range(4)]
            i, j = rng.sample(range(4), 2)
            rows[j] = rows[i]
            assert not flat_invertible(spec, 4, sum(rows, ()))


def _class_matrices(q, weights, seed):
    """k1 x k2 for every class representative x of mu over F_q and random
    depth-one kernel factors k1, k2, on the Laurent ring and on the Witt ring
    of length 4 (length 3 leaves the last minor of a gap-2 weight unknown)."""
    spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
    rng = random.Random(seed)
    for one in (LaurentElt.one(spec, default_precision(mu)),
                WittFraction.one(WittCtx.get(spec, 4))):
        for g, h in class_census(mu, spec):
            k1, k2 = random_k1_mat(one, mu.n, rng), random_k1_mat(one, mu.n, rng)
            yield k1 * pair_matrix(mu, g, h, one) * k2


RESIDUE_CASES = [(2, (1, 1, 0)), (2, (2, 1, 0)), (3, (1, 0)), (3, (2, 0))]


@pytest.mark.parametrize("q, weights", RESIDUE_CASES)
def test_snf_residues_match_snf_dvr_on_every_class(q, weights):
    count = 0
    for x in _class_matrices(q, weights, seed=7):
        abar, d, bbar = snf_residues(x)
        assert (abar, d, bbar) == _full_residues(x)
        assert d == weights
        count += 1
    assert count == 2 * len(class_census(Cocharacter(weights), FieldSpec.for_q(q)))


def _cut(y, depth: int):
    """y with its window cut short by depth, to nothing if need be (a Witt
    fraction keeps at least one digit)."""
    if isinstance(y, LaurentElt):
        prec = y.prec - depth
        v = min(y.v, prec)
        return LaurentElt(y.spec, v, prec, y._window(v, prec))
    return WittFraction(y.ctx, y.e, y.num, max(1, y.known - depth))


@pytest.mark.parametrize("q, weights", RESIDUE_CASES)
def test_snf_residues_raise_like_snf_dvr_on_short_windows(q, weights):
    # windows cut short entry by entry: both paths give the same residues or
    # raise the same error class with the same message
    rng = random.Random(11)
    outcomes = []
    for i, x in enumerate(_class_matrices(q, weights, seed=5)):
        if i % 6:
            continue
        for top in (3, 7):
            cut = Mat([[_cut(y, rng.randrange(top)) for y in r] for r in x.rows])
            got = stored(lambda: snf_residues(cut))
            assert got == stored(lambda: _full_residues(cut))
            outcomes.append(got)
    errors = {o[0] for o in outcomes if isinstance(o[0], str)}
    assert errors == {"InsufficientPrecision", "NotInvertible"}
    # a Laurent window below 1 has no constant term, and a, b no identity
    assert ("InsufficientPrecision", "constant needs prec >= 1") in outcomes
    assert any(not isinstance(o[0], str) for o in outcomes)  # some still decompose


def test_laurent_factorization_check_flags_an_overclaim():
    # a = 1 and d = 0, so a diag(t^d) b is b, whose 1 + t claims the digit at
    # t^1 of x_00 = 1 + O(t^4); known only mod t, x_00 = 1 has no such digit
    one = LaurentElt.one(F2, 4)
    zero, ident = one.zero_at(4), Mat.identity(2, one)
    b = Mat([[from_coeff_list(F2, 0, [1, 1, 0, 0], 4), zero], [zero, one]])
    assert factorization_overclaims(ident, ident, (0, 0), b) == [(0, 0)]
    short = Mat([[from_coeff_list(F2, 0, [1], 1), zero], [zero, one]])
    assert factorization_overclaims(short, ident, (0, 0), b) == []
    # the full loop claims no digit that x lacks on seeded matrices with
    # poles, stored leading zeros and empty windows
    decomposed, flagged, refused = factorization_sweep(300, seed=0)
    assert (flagged, decomposed + refused) == (0, 300) and decomposed > 100
