import itertools
from math import factorial

import pytest

from loopzip import weyl
from loopzip.errors import ConventionError, NotMinimalRep
from loopzip.grpdata import Cocharacter
from loopzip.weyl import (
    CosetPoset,
    Perm,
    all_permutations,
    bruhat_leq,
    identity,
    longest_element,
    min_coset_reps,
    parabolic_subgroup,
    reduced_word,
    shtuka_parametrization,
    simple_reflection,
    zip_parametrization,
)
from weyl_oracle import all_types, bruhat_mismatches, listed_parabolic, poset_mismatches


def subword_oracle(u, w):
    """u <= w iff some subword of a fixed reduced word of w is reduced for u."""
    word = reduced_word(w)
    lu = u.length()
    n = u.n
    for combo in itertools.combinations(range(len(word)), lu):
        prod = identity(n)
        for idx in combo:
            prod = prod * simple_reflection(n, word[idx])
        if prod == u:
            return True
    return False


def test_perm_basics():
    w = Perm((2, 3, 1))
    assert w.inverse() * w == identity(3)
    assert (w * w.inverse()).is_identity()
    assert w.length() == 2
    with pytest.raises(ValueError):
        Perm((1, 1, 2))


def test_reduced_word_lengths():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            word = reduced_word(w)
            assert len(word) == w.length()
            prod = identity(n)
            for i in word:
                prod = prod * simple_reflection(n, i)
            assert prod == w


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_subword_oracle(n):
    perms = list(all_permutations(n))
    for u in perms:
        for w in perms:
            assert bruhat_leq(u, w) == subword_oracle(u, w)


def test_bruhat_examples():
    e = identity(3)
    w0 = longest_element(3)
    s1, s2 = simple_reflection(3, 1), simple_reflection(3, 2)
    for w in all_permutations(3):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
    assert bruhat_leq(s1, s1 * s2)
    assert not bruhat_leq(s1, s2)


def test_longest_elements():
    assert longest_element(3).line == (3, 2, 1)
    assert longest_element(3, {1}).line == (2, 1, 3)
    assert longest_element(4, {1, 3}).line == (2, 1, 4, 3)
    assert longest_element(3, set()).is_identity()


def test_min_coset_reps_counts():
    assert len(min_coset_reps(3, set())) == 6
    reps = min_coset_reps(3, {1})
    assert len(reps) == 3
    assert len(min_coset_reps(4, {1, 2})) == 4
    # product decomposition: every w is uniquely (element of W_J) * rep
    wj = list(parabolic_subgroup(3, {1}))
    prods = {y * w for y in wj for w in reps}
    assert len(prods) == 6


def test_coset_poset_for_s3():
    poset = CosetPoset(3, {1})
    assert len(poset.elements) == 3
    e = identity(3)
    assert all(poset.leq(e, w) for w in poset.elements)
    chain = sorted(poset.elements, key=lambda w: w.length())
    assert poset.leq(chain[0], chain[1]) and poset.leq(chain[1], chain[2])
    assert not poset.leq(chain[2], chain[1])
    assert len(poset.hasse_edges()) == 2


def test_coset_poset_empty_type_is_bruhat():
    poset = CosetPoset(3, set())
    for u in poset.elements:
        for w in poset.elements:
            assert poset.leq(u, w) == bruhat_leq(u, w)


def test_order_that_is_not_reflexive_raises_convention_error(monkeypatch):
    monkeypatch.setattr(weyl, "bruhat_leq", lambda u, w: False)
    with pytest.raises(ConventionError, match="not reflexive"):
        CosetPoset(3, {1})


def test_order_that_is_not_antisymmetric_raises_convention_error(monkeypatch):
    monkeypatch.setattr(weyl, "bruhat_leq", lambda u, w: True)
    with pytest.raises(ConventionError, match="antisymmetry fails"):
        CosetPoset(3, {1})


def test_order_that_is_not_transitive_raises_convention_error(monkeypatch):
    # the covering relations of S_3 alone: reflexive, antisymmetric, not transitive
    perms = list(all_permutations(3))
    covers = {(u, w) for u in perms for w in perms
              if bruhat_leq(u, w) and w.length() == u.length() + 1}
    monkeypatch.setattr(weyl, "bruhat_leq", lambda u, w: u == w or (u, w) in covers)
    with pytest.raises(ConventionError, match="transitivity fails"):
        CosetPoset(3, set())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_order_matches_the_rank_matrix_oracle(n):
    # tests/weyl_oracle.py runs the same comparison up to n = 6
    assert bruhat_mismatches(n) == (factorial(n) ** 2, 0)
    for J in all_types(n):
        assert list(parabolic_subgroup(n, J)) == listed_parabolic(n, J)
        assert poset_mismatches(n, J)[1] == 0


def test_dot_output():
    dot = CosetPoset(3, {1}).to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    data = CosetPoset(3, {1}).to_json()
    assert len(data["elements"]) == 3


def test_parametrizations_gl2():
    mu = Cocharacter((1, 0))
    e = identity(2)
    w0 = longest_element(2)
    assert zip_parametrization(e, mu) == w0
    assert zip_parametrization(w0, mu) == e
    perm, label = shtuka_parametrization(e, mu)
    assert perm == w0  # w_{0,mu} is trivial when J is empty
    assert label is mu


def test_parametrizations_gl3():
    mu = Cocharacter((1, 1, 0))
    reps = min_coset_reps(3, mu.type_J)
    zips = [zip_parametrization(w, mu) for w in reps]
    shts = [shtuka_parametrization(w, mu)[0] for w in reps]
    assert len(set(zips)) == 3
    assert len(set(shts)) == 3


def test_not_minimal_rep_rejected():
    mu = Cocharacter((1, 1, 0))
    s1 = simple_reflection(3, 1)
    with pytest.raises(NotMinimalRep):
        zip_parametrization(s1, mu)
