import random

import pytest

from laurent_oracle import BoxedLaurent, FqElem, from_coeff_list, mu_matrix
from loopzip import matring
from loopzip.errors import InsufficientPrecision, LoopZipError, NotAUnit, NotIntegral
from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter, random_integral_mat, random_laurent
from loopzip.matring import Mat, snf_dvr
from loopzip.series import LaurentElt

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
F4 = FieldSpec.get(2, 2)


def rand_elt(spec, rng, vmin=-3, prec_max=8):
    v = rng.randrange(vmin, 3)
    prec = rng.randrange(v + 1, v + prec_max)
    return LaurentElt(spec, v, prec, [rng.randrange(spec.q) for _ in range(prec - v)])


def test_mul_shifts_precision_window():
    t = LaurentElt.t_power(F2, 1, 5)
    tinv = LaurentElt.t_power(F2, -1, 3)
    prod = t * tinv
    assert prod.residue_code() == 1
    # precision follows min(prec_a + v_b, prec_b + v_a)
    assert prod.prec == min(5 - 1, 3 + 1)


def test_char2_square():
    one_plus_t = from_coeff_list(F2, 0, [1, 1], 4)
    sq = one_plus_t * one_plus_t
    expect = from_coeff_list(F2, 0, [1, 0, 1], 4)
    assert sq == expect


def test_mul_precision_rule():
    a = from_coeff_list(F3, 0, [1, 1], 3)  # 1 + t + O(t^3)
    b = from_coeff_list(F3, 0, [1], 2)  # 1 + O(t^2)
    prod = a * b
    assert prod.prec == 2
    assert prod.codes[0 - prod.v] == 1 and prod.codes[1 - prod.v] == 1


def test_geometric_series_inverse():
    one_minus_t = from_coeff_list(F3, 0, [1, 2], 4)
    inv = one_minus_t.inverse()
    assert inv == from_coeff_list(F3, 0, [1, 1, 1, 1], 4)


def test_inverse_of_t():
    t = LaurentElt.t_power(F2, 1, 4)
    assert t.inverse().v == -1
    assert (t * t.inverse()).residue_code() == 1


def test_inverse_frozen_value():
    # multiply out and confirm the product is 1 within the window
    a = from_coeff_list(F3, 0, [2, 1], 3)  # 2 + t
    inv = a.inverse()
    assert inv == from_coeff_list(F3, 0, [2, 2, 2], 3)
    assert (a * inv).congruent_mod(LaurentElt.one(F3, 3), 3)


def test_inverse_errors():
    empty = LaurentElt(F2, 3, 3, ())
    with pytest.raises(InsufficientPrecision):
        empty.inverse()
    zero_window = from_coeff_list(F2, 0, [0, 0, 0], 3)
    with pytest.raises(NotAUnit):
        zero_window.inverse()
    with pytest.raises(InsufficientPrecision):
        empty * LaurentElt.one(F2, 3)


def test_ring_axioms_random():
    rng = random.Random(3)
    for spec in (F2, F3, FieldSpec.get(3, 2)):
        for _ in range(60):
            a, b, c = (rand_elt(spec, rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            lhs = a * (b + c)
            rhs = a * b + a * c
            k = min(lhs.prec, rhs.prec)
            lo = min(lhs.v, rhs.v)
            if k > lo:
                assert lhs.congruent_mod(rhs, k)


def test_reduce_examples():
    f = from_coeff_list(F2, 0, [1, 1], 3)
    assert f.residue_code() == 1
    t = LaurentElt.t_power(F2, 1, 3)
    assert t.residue_code() == 0
    pole = LaurentElt(F2, -1, 2, [1, 1, 0])
    with pytest.raises(NotIntegral):
        pole.residue_code()
    shallow = LaurentElt.zero(F2, 0)
    with pytest.raises(InsufficientPrecision):
        shallow.residue_code()


def test_reduce_is_ring_hom_on_integrals():
    rng = random.Random(9)
    for _ in range(60):
        a = rand_elt(F3, rng, vmin=0)
        b = rand_elt(F3, rng, vmin=0)
        ra, rb = a.residue_code(), b.residue_code()
        assert (a + b).residue_code() == F3.add_table[ra][rb]
        assert (a * b).residue_code() == F3.mul_table[ra][rb]


def test_equality_is_strict_about_precision():
    a = from_coeff_list(F2, 0, [1], 2)
    b = from_coeff_list(F2, 0, [1], 3)
    assert a != b
    assert a.congruent_mod(b, 2)
    with pytest.raises(InsufficientPrecision):
        a.congruent_mod(b, 3)
    # leading stored zeros do not affect equality
    c = from_coeff_list(F2, -2, [0, 0, 1], 2)
    d = from_coeff_list(F2, 0, [1], 2)
    assert c == d and hash(c) == hash(d)


def test_trim_and_valuation():
    f = from_coeff_list(F2, -1, [0, 0, 1], 3)
    assert f.valuation() == 1
    assert LaurentElt.zero(F2, 4).valuation() is None


def test_json_roundtrip():
    f = from_coeff_list(F4, -1, [2, 3, 1], 3)
    assert LaurentElt.from_json(F4, f.to_json()) == f


def test_text_form():
    f = from_coeff_list(F3, -1, [2, 0, 1], 2)
    assert repr(f) == "2*t^-1 + t + O(t^2)"


def test_constructor_rejects_non_codes():
    with pytest.raises(ValueError):
        LaurentElt(F2, 0, 2, [FqElem(F2, 1), FqElem(F2, 0)])  # boxed elements, not codes
    with pytest.raises(ValueError):
        LaurentElt(F3, 0, 2, [1, 3])
    with pytest.raises(ValueError):
        LaurentElt(F3, 0, 2, [-1, 0])
    with pytest.raises(ValueError):
        LaurentElt(F3, 0, 1, [True])
    with pytest.raises(ValueError):
        from_coeff_list(F4, 0, [1, 4], 3)


# -- the int-code series against the FqElem-boxed oracle -----------------------


def boxed(x):
    return BoxedLaurent(x.spec, x.v, x.prec, [FqElem(x.spec, c) for c in x.codes])


def outcome(fn):
    """What fn() gives: the JSON form of a series, a plain value, or the error class."""
    try:
        out = fn()
    except (LoopZipError, ValueError) as exc:
        return type(exc)
    return out.to_json() if isinstance(out, (LaurentElt, BoxedLaurent)) else out


def oracle_sample(spec, rng):
    """Random series with negative v, stored leading zeros and empty windows."""
    v = rng.randrange(-4, 4)
    n = rng.choice((0, 1, 2, 3, 5, 8, 11))
    codes = [rng.randrange(spec.q) for _ in range(n)]
    shape = rng.randrange(4)
    if shape == 1:
        zeros = rng.randrange(n + 1)
        codes[:zeros] = [0] * zeros
    elif shape == 2:
        codes = [0] * n
    return LaurentElt(spec, v, v + n, codes)


def mismatches(a, b):
    A, B = boxed(a), boxed(b)
    cases = [
        (lambda: a + b, lambda: A + B),
        (lambda: a * b, lambda: A * B),
        (lambda: a.inverse(), lambda: A.inverse()),
        (lambda: a.valuation(), lambda: A.valuation()),
        (lambda: a.is_integral(), lambda: A.is_integral()),
        (lambda: a.residue_code(), lambda: A.residue_code()),
        (lambda: a == b, lambda: A == B),
        (lambda: hash(a), lambda: hash(A)),
        (lambda: repr(a), lambda: repr(A)),
    ]
    cases.append((lambda: a.codes, lambda: tuple(c.code for c in A.coeffs)))
    for n in range(min(a.v, b.v) - 1, max(a.prec, b.prec) + 2):
        cases.append((lambda n=n: a.congruent_mod(b, n), lambda n=n: A.congruent_mod(B, n)))
    bad = [i for i, (f, g) in enumerate(cases) if outcome(f) != outcome(g)]
    if a == b and hash(a) != hash(b):
        bad.append("hash")
    return bad


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_codes_match_boxed_oracle(q):
    spec = FieldSpec.for_q(q)
    rng = random.Random(1000 + q)
    pairs = [(oracle_sample(spec, rng), oracle_sample(spec, rng)) for _ in range(400)]
    # equal values stored with different windows, and the same element twice
    pairs += [(a, from_coeff_list(spec, a.v - 2, (0, 0) + a.codes, a.prec))
              for a, _ in pairs[:40]]
    pairs += [(a, a) for a, _ in pairs[:40]]
    bad = [(a, b, m) for a, b in pairs if (m := mismatches(a, b))]
    assert bad == []
    assert all(boxed(a) == BoxedLaurent.from_json(spec, a.to_json()) for a, _ in pairs)


def _boxed_mat(x):
    return Mat([[boxed(e) for e in r] for r in x.rows])


def _mat_outcome(fn):
    try:
        out = fn()
    except LoopZipError as exc:
        return type(exc)
    if isinstance(out, tuple):
        a, d, b = out
        return a.to_json(), d, b.to_json()
    return out.to_json()


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_mat_ops_match_boxed_oracle(monkeypatch, q, n):
    spec = FieldSpec.for_q(q)
    rng = random.Random(50 * q + n)
    mu = Cocharacter((1,) + (0,) * (n - 1))
    cases = []
    for _ in range(30):
        prec = rng.randrange(5, 9)
        x = random_integral_mat(spec, n, prec, rng)
        y = random_integral_mat(spec, n, prec, rng)
        cases.append(x)
        cases.append(x * mu_matrix(mu, LaurentElt.one(spec, prec)) * y)
        # poles, stored zeros and short windows: some of these raise
        cases.append(Mat([
            [random_laurent(spec, rng, rng.randrange(-2, 2), rng.randrange(2, 6))
             for _ in range(n)] for _ in range(n)
        ]))
        cases.append(Mat([x.rows[0]] * n))  # singular
    fast = [(_mat_outcome(x.inverse), _mat_outcome(lambda x=x: snf_dvr(x)))
            for x in cases]
    monkeypatch.setattr(matring, "LaurentElt", BoxedLaurent)
    slow = [(_mat_outcome(_boxed_mat(x).inverse),
             _mat_outcome(lambda x=x: snf_dvr(_boxed_mat(x))))
            for x in cases]
    assert [i for i in range(len(cases)) if fast[i] != slow[i]] == []
    # the samples reach both the decomposition and its refusals
    assert any(isinstance(s, tuple) for _, s in fast)
    assert any(isinstance(s, type) for _, s in fast)
