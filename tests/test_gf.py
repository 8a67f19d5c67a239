import pytest

from loopzip.errors import SpecMismatch
from loopzip.gf import SIZES, FieldSpec
from loopzip.series import LaurentElt

ALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]


@pytest.fixture(params=ALL_FIELDS, ids=lambda pm: f"F{pm[0]**pm[1]}")
def spec(request):
    return FieldSpec.get(*request.param)


def test_supported_sizes():
    for p, m in ALL_FIELDS:
        s = FieldSpec.get(p, m)
        assert s.q == p**m <= 25
    with pytest.raises(ValueError):
        FieldSpec(3, 3)  # 27 > 25
    with pytest.raises(ValueError):
        FieldSpec(7, 1)


def test_a_reducible_modulus_is_refused(monkeypatch):
    # the inverse tables certify the modulus: w + 1 squares to zero mod w^2 + 1
    import loopzip.gf as gf

    monkeypatch.setitem(gf._MODULI, (2, 2), (1, 0, 1))
    with pytest.raises(AssertionError, match="no inverse for code 3"):
        FieldSpec(2, 2)


def test_spec_get_is_cached():
    assert FieldSpec.get(2, 2) is FieldSpec.get(2, 2)
    assert FieldSpec.for_q(4) is FieldSpec.get(2, 2)


def test_char2_basics():
    F2 = FieldSpec.get(2, 1)
    assert F2.add_table[1][1] == 0


def test_f4_generator_relations():
    F4 = FieldSpec.get(2, 2)
    w = 2  # the code of w, pinned by test_serialization_little_endian
    mul, add = F4.mul_table, F4.add_table
    # w^2 reduces to w + 1 by the modulus w^2 + w + 1
    assert mul[w][w] == add[w][1]
    assert F4.inv_table[w] == add[w][1]
    assert F4.frob_code(w) == mul[w][w]


def test_inverse_examples():
    F3 = FieldSpec.get(3, 1)
    assert F3.inv_table[2] == 2
    F2 = FieldSpec.get(2, 1)
    assert F2.inv_table[1] == 1
    # zero has no inverse: no code multiplies it to one
    assert 1 not in F2.mul_table[0]


def test_inverse_matches_exhaustive_search(spec):
    for a in range(1, spec.q):
        found = [b for b in range(spec.q) if spec.mul_table[a][b] == 1]
        assert found == [spec.inv_table[a]]


def test_field_axioms_exhaustive(spec):
    els = range(spec.q)
    add, mul = spec.add_table, spec.mul_table
    for a in els:
        assert mul[a][1] == a
        assert add[a][0] == a
        assert add[a][spec.neg_table[a]] == 0
    for a in els:
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_frobenius_is_ring_hom(spec):
    frob, add, mul = spec.frob_code, spec.add_table, spec.mul_table
    for a in range(spec.q):
        for b in range(spec.q):
            assert frob(add[a][b]) == add[frob(a)][frob(b)]
            assert frob(mul[a][b]) == mul[frob(a)][frob(b)]


def test_frobenius_order(spec):
    for a in range(spec.q):
        assert spec.frob_code(a, spec.m) == a
        assert spec.frob_code(spec.frob_code(a), -1) == a
    if spec.m == 1:
        for a in range(spec.q):
            assert spec.frob_code(a) == a


def test_spec_mismatch():
    # codes carry no field; the first objects that do refuse to mix
    a = LaurentElt.one(FieldSpec.get(2, 1), 1)
    b = LaurentElt.one(FieldSpec.get(3, 1), 1)
    with pytest.raises(SpecMismatch):
        a + b


def test_serialization_little_endian():
    F4 = FieldSpec.get(2, 2)
    # integer codes follow the little-endian base-p encoding: w is code 2
    assert F4._code_to_vec(2) == [0, 1]
    w_plus_1 = F4.add_table[2][1]
    assert F4._code_to_vec(w_plus_1) == [1, 1]
    assert F4._vec_to_code([1, 1]) == w_plus_1 == 3
    assert F4.code_repr(w_plus_1) == "1 + w"


def test_element_order_matches_codes(spec):
    # code order is the order of the coefficient vectors read as base-p numerals
    codes = sorted(range(spec.q), key=lambda c: spec._code_to_vec(c)[::-1])
    assert codes == list(range(spec.q))


def _multiplicative_order(spec, a):
    x, order = a, 1
    while x != 1:
        x, order = spec.mul_table[x][a], order + 1
    return order


def test_primitive_code_is_the_least_generator():
    # every supported field, F_25 included; w (code p) is not primitive in F_9 or F_25
    for q in SIZES:
        spec = FieldSpec.for_q(q)
        zeta = spec.primitive_code()
        assert _multiplicative_order(spec, zeta) == q - 1
        assert all(_multiplicative_order(spec, a) < q - 1 for a in range(1, zeta))
    assert FieldSpec.for_q(9).primitive_code() == 4
    assert _multiplicative_order(FieldSpec.for_q(9), 3) == 4
    assert _multiplicative_order(FieldSpec.for_q(25), 5) == 8
