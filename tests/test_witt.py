import random

import pytest

from loopzip.cli import main
from loopzip.errors import InsufficientPrecision, NotAUnit, NotIntegral
from loopzip.gf import FieldSpec
from loopzip.matring import Mat, snf_dvr
from loopzip.witt import WittCtx, WittFraction, ghost_selftest
from witt_oracle import (
    IntPoly,
    PolyWitt,
    factorization_overclaims,
    ghost_poly,
    p_power,
    table_mismatches,
    witt_neg_polys,
    window_overclaims,
    witt_structure_polys,
)

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
F4 = FieldSpec.get(2, 2)


# -- independent integer oracle: W_N(F_p) = Z/p^N via Teichmuller digits ---------


def teich(a, p, mod):
    x = a % mod
    while True:
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y


def oracle_int_to_coords(n, p, length):
    coords = []
    rem = n % p**length
    for i in range(length):
        a = rem % p
        coords.append(a)
        rem = (rem - teich(a, p, p ** (length - i))) // p
    return tuple(coords)


def oracle_coords_to_int(coords, p):
    mod = p ** len(coords)
    return sum(p**i * teich(a, p, mod) for i, a in enumerate(coords)) % mod


def coords(x):
    """Witt coordinates of the numerator of the WittFraction x."""
    return x.ctx.coords(x.num)


# -- structure polynomials --------------------------------------------------------


def test_structure_poly_base_cases():
    for p in (2, 3, 5):
        sums, prods = witt_structure_polys(p, 2)
        nv = 4
        x0, x1 = IntPoly.var(nv, 0), IntPoly.var(nv, 1)
        y0, y1 = IntPoly.var(nv, 2), IntPoly.var(nv, 3)
        assert sums[0] == x0 + y0
        assert prods[0] == x0 * y0
    # ghost recursion over Z forces the minus sign at p=2
    sums, _ = witt_structure_polys(2, 2)
    nv = 4
    x0, x1 = IntPoly.var(nv, 0), IntPoly.var(nv, 1)
    y0, y1 = IntPoly.var(nv, 2), IntPoly.var(nv, 3)
    assert sums[1] == x1 + y1 - x0 * y0


@pytest.mark.parametrize("p,length", [(2, 4), (3, 4), (5, 2)])
def test_ghost_identities_exact(p, length):
    sums, prods = witt_structure_polys(p, length)
    nv = 2 * length
    for n in range(length):
        gx = ghost_poly(p, n, nv, 0)
        gy = ghost_poly(p, n, nv, length)
        acc_s = IntPoly(nv, {})
        acc_p = IntPoly(nv, {})
        for i in range(n + 1):
            acc_s = acc_s + sums[i].power(p ** (n - i)).scaled(p**i)
            acc_p = acc_p + prods[i].power(p ** (n - i)).scaled(p**i)
        assert acc_s == gx + gy
        assert acc_p == gx * gy
    negs = witt_neg_polys(p, length)
    for n in range(length):
        acc = IntPoly(length, {})
        for i in range(n + 1):
            acc = acc + negs[i].power(p ** (n - i)).scaled(p**i)
        assert acc == -ghost_poly(p, n, length, 0)


def test_structure_polys_deterministic():
    a = witt_structure_polys.__wrapped__(3, 3)
    b = witt_structure_polys.__wrapped__(3, 3)
    assert a == b


def test_length_cap():
    with pytest.raises(ValueError):
        witt_structure_polys(2, 5)
    with pytest.raises(ValueError):
        witt_structure_polys(5, 3)
    for length in (0, 5):
        with pytest.raises(ValueError, match="length must be 1..4"):
            WittCtx.get(F2, length)
    with pytest.raises(ValueError, match="p=5 supported only to length 2"):
        WittCtx.get(FieldSpec.get(5, 1), 3)


def test_p5_short_length():
    rep = ghost_selftest(5, 2, 200, seed=0)
    assert rep["passed_samples"] == 200


# -- Galois ring against the structure polynomials ------------------------------

ORACLE_CONFIGS = [
    (q, length)
    for q in (2, 3, 4, 5, 8, 9, 25)
    for length in (1, 2, 3, 4)
    if q % 5 or length <= 2
]


@pytest.mark.parametrize("q,length", ORACLE_CONFIGS)
def test_ring_tables_match_the_per_element_loops(q, length):
    # every admitted context: its valuation, digit and inverse tables against
    # trial division, digit peeling and Newton lifting on every element
    elements, bad = table_mismatches(WittCtx.get(FieldSpec.for_q(q), length))
    assert elements == q**length
    assert bad == 0


@pytest.mark.parametrize("q,length", ORACLE_CONFIGS)
def test_galois_ring_matches_structure_polys(q, length):
    spec = FieldSpec.for_q(q)
    ctx = WittCtx.get(spec, length)
    ref = PolyWitt(spec, length)
    rng = random.Random(100 * q + length)
    one = WittFraction.one(ctx)

    for _ in range(300):
        a = tuple(rng.randrange(q) for _ in range(length))
        b = tuple(rng.randrange(q) for _ in range(length))
        wa, wb = one.from_codes(a), one.from_codes(b)
        va = wa.num
        assert ctx.coords(va) == a
        assert (ctx.valuation(va) == 0) == (a[0] != 0)
        assert ctx.valuation(va) == next((i for i, c in enumerate(a) if c), None)
        assert all(
            wa.congruent_mod(wb, j) == (a[:j] == b[:j]) for j in range(length + 1)
        )
        assert coords(wa + wb) == ref.add(a, b)
        assert coords(wa * wb) == ref.mul(a, b)
        assert ctx.coords(ctx.times_p(va, 1)) == ref.times_p(a)
        assert ctx.coords(ctx.unshift(ctx.times_p(va, 1), 1)) == ref.unshift_p(ref.times_p(a))
        if a[0]:
            assert ctx.coords(ctx.unit_inverse(va)) == ref.inverse(a)
        else:
            with pytest.raises(NotAUnit):
                ctx.unit_inverse(va)
            assert ctx.coords(ctx.unshift(va, 1)) == ref.unshift_p(a)
    acc = (0,) * length
    for n in range(spec.p**length + 1):
        assert ctx.coords(ctx.from_int(n)) == acc
        assert ctx.coords(ctx.from_int(-n)) == ref.neg(acc)
        acc = ref.add(acc, ref.one())
    for k in range(length + 1):
        assert ctx.coords(ctx.from_int(spec.p**k)) == ref.p_elt(k)


@pytest.mark.parametrize("q,length", ORACLE_CONFIGS)
def test_multi_digit_shifts_match_structure_polys(q, length):
    # times_p(v, k) and unshift(v, k) are k single shifts of the oracle at once
    spec = FieldSpec.for_q(q)
    ctx = WittCtx.get(spec, length)
    ref = PolyWitt(spec, length)
    rng = random.Random(1000 * q + length)
    for k in range(length):
        for _ in range(50):
            a = tuple(rng.randrange(q) for _ in range(length))
            divisible = (0,) * k + a[k:]
            times, quotient = a, divisible
            for _ in range(k):
                times, quotient = ref.times_p(times), ref.unshift_p(quotient)
            assert ctx.coords(ctx.times_p(ctx.from_coord_codes(a), k)) == times
            assert ctx.coords(ctx.unshift(ctx.from_coord_codes(divisible), k)) == quotient
            if any(a[:k]):
                with pytest.raises(NotIntegral):
                    ctx.unshift(ctx.from_coord_codes(a), k)


def test_ghost_oracle_catches_a_wrong_teichmuller_lift(monkeypatch, capsys, request):
    # the plain digit lift skips the power x^(q^(N-1)); it is the
    # Teichmuller lift over F_2 but not over F_3
    monkeypatch.setattr(
        WittCtx, "_teichmuller_lift",
        lambda self, code: tuple(self.spec._code_to_vec(code)),
    )
    # contexts built with the wrong lift must not outlive the test
    WittCtx.get.cache_clear()
    request.addfinalizer(WittCtx.get.cache_clear)
    rep = ghost_selftest(3, 3, 100, seed=0)
    assert rep["passed_samples"] < rep["samples"]
    assert rep["passed"] is False
    code = main(["verify", "--suite", "witt", "--mu", "1,0", "--q", "2",
                 "--samples", "20"])
    assert main(["witt-selftest", "--q", "3", "--prec", "3", "--samples", "100"]) == 1
    capsys.readouterr()
    assert code == 1


# -- arithmetic against the integer oracle ----------------------------------------


@pytest.mark.parametrize("p,length", [(2, 2), (2, 3), (3, 2)])
def test_prime_field_arith_exhaustive(p, length):
    spec = FieldSpec.get(p, 1)
    ctx = WittCtx.get(spec, length)
    one = WittFraction.one(ctx)
    mod = p**length
    for x in range(mod):
        for y in range(mod):
            wx = one.from_codes(oracle_int_to_coords(x, p, length))
            wy = one.from_codes(oracle_int_to_coords(y, p, length))
            assert coords(wx + wy) == oracle_int_to_coords((x + y) % mod, p, length)
            assert coords(wx * wy) == oracle_int_to_coords((x * y) % mod, p, length)


def test_ghost_selftest_500():
    for p in (2, 3):
        for length in (2, 3, 4):
            rep = ghost_selftest(p, length, 500, seed=0)
            assert rep["passed_samples"] == rep["samples"] == 500


def test_oracle_is_bijective():
    for p, length in [(2, 4), (3, 3)]:
        seen = {oracle_int_to_coords(n, p, length) for n in range(p**length)}
        assert len(seen) == p**length
        for n in range(p**length):
            assert oracle_coords_to_int(oracle_int_to_coords(n, p, length), p) == n


def test_two_in_w2_f2():
    ctx = WittCtx.get(F2, 2)
    one = WittFraction.one(ctx)
    assert coords(one + one) == (0, 1)


def teichmuller(ctx, code):
    """[a] for the element a with field code `code`: coordinates (a, 0, ..., 0)."""
    return WittFraction.one(ctx).from_codes((code,) + (0,) * (ctx.length - 1))


def test_teichmuller_multiplicative():
    ctx = WittCtx.get(F4, 3)
    for a in range(F4.q):
        for b in range(F4.q):
            prod = teichmuller(ctx, a) * teichmuller(ctx, b)
            assert prod == teichmuller(ctx, F4.mul_table[a][b])


def test_additive_identity():
    ctx = WittCtx.get(F3, 3)
    rng = random.Random(1)
    for _ in range(20):
        w = WittFraction(ctx, 0, ctx.from_coord_codes([rng.randrange(3) for _ in range(3)]))
        assert w + WittFraction.zero(ctx) == w


def test_w1_is_the_field():
    ctx = WittCtx.get(F4, 1)
    for a in range(F4.q):
        for b in range(F4.q):
            assert coords(teichmuller(ctx, a) + teichmuller(ctx, b)) == (F4.add_table[a][b],)
            assert coords(teichmuller(ctx, a) * teichmuller(ctx, b)) == (F4.mul_table[a][b],)


def test_inverse():
    ctx = WittCtx.get(F3, 4)
    rng = random.Random(4)
    for _ in range(30):
        coords = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(3)]
        v = ctx.from_coord_codes(coords)
        inv = WittFraction(ctx, 0, ctx.unit_inverse(v))
        assert WittFraction(ctx, 0, v) * inv == WittFraction.one(ctx)
    with pytest.raises(NotAUnit):
        ctx.unit_inverse(ctx.from_coord_codes([0] * 4))


def test_times_p_matches_ring_multiplication():
    for spec, length in [(F2, 3), (F3, 3), (F4, 3)]:
        ctx = WittCtx.get(spec, length)
        p_elt = WittFraction(ctx, 0, ctx.from_int(spec.p))
        rng = random.Random(6)
        for _ in range(25):
            v = ctx.from_coord_codes([rng.randrange(spec.q) for _ in range(length)])
            assert WittFraction(ctx, 0, ctx.times_p(v, 1)) == p_elt * WittFraction(ctx, 0, v)
        assert p_elt.valuation() == 1


def test_int_embedding_matches_oracle():
    ctx = WittCtx.get(F2, 4)
    for n in range(16):
        assert ctx.coords(ctx.from_int(n)) == oracle_int_to_coords(n, 2, 4)


# -- fractions ----------------------------------------------------------------------


def test_fraction_p_inverse_times_p():
    ctx = WittCtx.get(F2, 3)
    pinv = p_power(ctx, -1)
    p = p_power(ctx, 1)
    prod = pinv * p
    assert prod.known == 2
    assert prod == WittFraction.one(ctx)
    # the numerator of p is the image of 2, cross-checked by the oracle
    assert coords(p) == oracle_int_to_coords(2, 2, 3)


def test_fraction_shift_is_exact_bookkeeping():
    ctx = WittCtx.get(F3, 3)
    rng = random.Random(8)
    w = ctx.from_coord_codes([rng.randrange(1, 3) for _ in range(3)])
    frac = WittFraction(ctx, 1, w)  # p^-1 w at precision N-1
    shifted = frac.shifted(2)  # times p^2: p w at full storable precision
    assert shifted.e == 0
    assert shifted.known == 3
    assert shifted == WittFraction(ctx, 0, ctx.times_p(w, 1))


def test_fraction_add_mul_inverse():
    ctx = WittCtx.get(F3, 4)
    a = WittFraction(ctx, 1, ctx.from_int(5))
    b = WittFraction(ctx, 0, ctx.from_int(7))
    total = a + b  # (5 + 7p)/p
    assert total.e == 1
    assert total * p_power(ctx, 1) == WittFraction(
        ctx, 0, ctx.from_int(5 + 7 * 3)
    )
    inv = b.inverse()
    assert inv * b == WittFraction.one(ctx)
    # inverting p^j * unit costs 2j digits of certainty
    c = WittFraction(ctx, 0, ctx.from_int(3))
    cinv = c.inverse()
    assert cinv.e == 1 and cinv.known == 2
    assert (c * cinv).congruent_mod(WittFraction.one(ctx), 2)


def test_fraction_precision_guards():
    ctx = WittCtx.get(F2, 3)
    with pytest.raises(InsufficientPrecision):
        WittFraction(ctx, 3, ctx.from_int(1))
    pinv2 = WittFraction(ctx, 2, ctx.from_int(1))
    with pytest.raises(InsufficientPrecision):
        pinv2 * pinv2
    with pytest.raises(NotAUnit):
        WittFraction.zero(ctx).inverse()


def test_untrusted_digits_do_not_prove_anything():
    ctx = WittCtx.get(F2, 3)
    # value = p^2 * unit with only one trusted digit: valuation unprovable
    junk = WittFraction(ctx, 0, p_power(ctx, 2).num, known=1)
    assert junk.valuation() is None
    with pytest.raises(NotAUnit):
        junk.inverse()
    trusted = p_power(ctx, 2)
    assert trusted.valuation() == 2


def test_fraction_reduce_and_integrality():
    ctx = WittCtx.get(F2, 3)
    two = WittFraction(ctx, 1, ctx.from_int(4))  # 4/2 = 2
    assert two.is_integral()
    assert two.residue_code() == 0
    half = WittFraction(ctx, 1, ctx.from_int(1))
    with pytest.raises(NotIntegral):
        half.residue_code()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_residue_code_is_the_first_coordinate(q):
    spec = FieldSpec.for_q(q)
    ctx = WittCtx.get(spec, 2)
    rng = random.Random(q)
    for _ in range(50):
        codes = [rng.randrange(q) for _ in range(2)]
        w = WittFraction(ctx, 0, ctx.from_coord_codes(codes))
        assert w.residue_code() == codes[0]
        assert w.residue_code() == coords(teichmuller(ctx, codes[0]))[0]


def test_fraction_json():
    ctx = WittCtx.get(F2, 3)
    frac = WittFraction(ctx, 1, ctx.from_int(2))
    data = frac.to_json()
    # canonical form strips the shared p factor
    assert data["e"] == 0
    assert data["p"] == 2 and data["N"] == 3


@pytest.mark.parametrize("p,length", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_fraction_windows_hold_the_exact_value(p, length):
    # +, -, *, inverse and shifted on fractions with unstripped numerators:
    # every digit a result claims is a digit of the exact result
    checked, bad = window_overclaims(p, length, 400, seed=length)
    assert bad == 0
    assert checked > 1000


def _w2f2_cell(value: int, e: int = 0) -> dict:
    """The W_2(F_2) cell p^(-e) value, stored as given: p^(-1) 2 stays unstripped."""
    return {"coords": [[value % 2], [value // 2]], "e": e}


def test_factorization_check_flags_a_dropped_remainder():
    # snf_dvr drops the entry its elimination leaves zero within its window,
    # here 2 - x_31 * 1, known only mod 2: a diag(p^d) b is 0 mod 4 at (3, 2),
    # where x_32 = 2 is known mod 4
    cells = [[_w2f2_cell(1), _w2f2_cell(1), _w2f2_cell(2, 1)],
             [_w2f2_cell(0, 1), _w2f2_cell(2, 1), _w2f2_cell(0)],
             [_w2f2_cell(0, 1), _w2f2_cell(2), _w2f2_cell(1)]]
    x = Mat.from_json({"n": 3, "ring": {"tag": "wittfrac", "p": 2, "m": 1, "N": 2},
                       "entries": cells})
    a, d, b = snf_dvr(x)
    assert d == (0, 0, 0)
    assert factorization_overclaims(x, a, d, b) == [(2, 1)]
    # with its poles replaced by their numerators, every window is full and
    # the decomposition is honest
    y = Mat([[WittFraction(z.ctx, 0, z.num) for z in row] for row in x.rows])
    a, d, b = snf_dvr(y)
    assert d == (1, 0, 0)
    assert factorization_overclaims(y, a, d, b) == []
