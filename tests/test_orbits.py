import pytest

from loopzip.errors import BudgetExceeded
from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter, gl_order
from loopzip.orbits import (
    ACTION_KINDS,
    ActionSpec,
    chain_compare,
    check_action_axioms,
    enumerate_orbits,
    transport_check,
    weyl_reps_report,
)

from orbits_oracle import (DRAW_CASES, ORBIT_CASES, oracle_generators, parabolic_draws_mismatch,
                           partition_mismatch, zip_draws_mismatch)

MU = Cocharacter((1, 0))


def test_action_axioms_all_kinds():
    for kind in ("zip-normal", "zip-frobenius", "partial-frobenius", "sigma-conj"):
        assert check_action_axioms(ActionSpec(kind, MU, 2, 1), samples=15, seed=1)
        assert check_action_axioms(ActionSpec(kind, MU, 3, 1), samples=10, seed=1)


@pytest.mark.parametrize("kind", ["zip-normal", "zip-frobenius", "partial-frobenius"])
def test_action_axioms_catch_a_missing_inverse(monkeypatch, kind):
    """x -> p_+ x r(p_-) is not a right action, and the axioms check must say
    so.  At q = 3, mu = (1, 0) the map differs from the real action on 12 of
    the 36 zip elements.  At q = 2 it is the real action itself, not a broken
    one: every p_+ there is an involution, so p_+ = p_+^(-1)."""
    import loopzip.orbits as orbits
    from loopzip.matring import flat_frobenius, flat_mul

    spec = FieldSpec.for_q(3)
    real = orbits._action

    def broken_action(aspec):
        def act(pair):
            pm, pp = pair
            right = flat_frobenius(spec, pm, 1) if kind == "partial-frobenius" else pm
            return lambda g: flat_mul(spec, 2, flat_mul(spec, 2, pp, g), right)

        return real(aspec)._replace(act=act)

    aspec = ActionSpec(kind, MU, 3, 1)
    assert check_action_axioms(aspec)
    monkeypatch.setattr(orbits, "_action", broken_action)
    assert not check_action_axioms(aspec)


def test_action_axioms_catch_an_identity_that_moves_a_point(monkeypatch):
    # the action names a root element as its identity; products and their
    # action are the real ones, so only the identity check can fail
    import loopzip.orbits as orbits

    real = orbits._action

    def wrong_identity(aspec):
        action = real(aspec)
        return action._replace(identity=action.gens[0])

    aspec = ActionSpec("partial-frobenius", MU, 3, 1)
    assert check_action_axioms(aspec)
    monkeypatch.setattr(orbits, "_action", wrong_identity)
    assert not check_action_axioms(aspec)


@pytest.mark.parametrize("q, weights", DRAW_CASES)
def test_draws_are_uniform_over_the_group(q, weights):
    # each draw is a member of the listed group, and 30 |group| seeded draws
    # reach every member: the zip group in three twists, and P_-
    spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
    for tau in (0, 1, 2):
        assert not zip_draws_mismatch(spec, mu, tau)
    assert not parabolic_draws_mismatch(spec, mu)


def test_orbit_partition_invariants():
    part = enumerate_orbits(ActionSpec("zip-normal", MU, 2))
    assert part.total == gl_order(2, 2) == 6
    assert sum(size for _, size, _ in part.orbits) == 6
    assert all(part.acting_order % size == 0 for _, size, _ in part.orbits)
    assert [size for _, size, _ in part.orbits] == [2, 4]


# a fixed slice of the oracle's cases (tests/orbits_oracle.py runs them all),
# chosen by index so that appending a case there changes nothing here
TIER1_ORBIT_CASES = [ORBIT_CASES[i] for i in (0, 1, 4, 8, 9, 11, 13, 14, 16, 18, 27, 34,
                                              41, 42, 43, 44, 46, 51, 52, 53, 54, 55, 57, 58)]


@pytest.mark.parametrize("kind, q, weights, tau", TIER1_ORBIT_CASES,
                         ids=lambda v: v if isinstance(v, str) else repr(v).replace(" ", ""))
def test_orbit_walk_matches_union_find(kind, q, weights, tau):
    # the cached partition cannot be mutated
    aspec = ActionSpec(kind, Cocharacter(weights), q, tau)
    assert not partition_mismatch(aspec)
    part = enumerate_orbits(aspec)
    assert type(part.orbits) is tuple and type(part.blocks) is frozenset
    with pytest.raises(TypeError):
        part.root[part.orbits[0][0]] = None


def test_engines_act_by_the_small_generating_sets():
    # GL2(F4), mu (1, 0): root elements over the F_2-basis {1, w} at each
    # position plus one torus element per Levi block, where the oracle
    # unions over whole subgroups
    import loopzip.orbits as orbits

    for kind in ACTION_KINDS:
        aspec = ActionSpec(kind, MU, 4, 1)
        assert len(orbits._action(aspec).gens) == (5 if kind == "sigma-conj" else 6)
        assert len(oracle_generators(aspec)) == 14


def test_an_action_leaving_the_point_set_is_refused(monkeypatch):
    import loopzip.orbits as orbits

    real = orbits._action

    # every point is sent to the zero matrix, which lies outside GL_2
    def leaking_action(aspec):
        return real(aspec)._replace(act=lambda pair: lambda g: (0,) * len(g))

    monkeypatch.setattr(orbits, "_action", leaking_action)
    with pytest.raises(AssertionError, match="do not sum"):
        enumerate_orbits.__wrapped__(ActionSpec("zip-normal", MU, 2))


def test_unknown_action_kind_is_refused_before_the_budget():
    for engine in (enumerate_orbits, check_action_axioms):
        with pytest.raises(ValueError, match="unknown action kind class-census"):
            engine(ActionSpec("class-census", Cocharacter((1, 0, 0)), 5))


def test_trivial_weights_action_is_conjugation():
    """With equal weights the zip group degenerates to the diagonal copy of
    G acting by conjugation, so orbits are conjugacy classes."""
    part = enumerate_orbits(ActionSpec("zip-normal", Cocharacter((0, 0)), 2))
    assert sorted(size for _, size, _ in part.orbits) == [1, 2, 3]


def test_orbits_deterministic():
    # clear the cache between the runs, or the second call returns the first's result
    enumerate_orbits.cache_clear()
    p1 = enumerate_orbits(ActionSpec("sigma-conj", MU, 2, 1))
    enumerate_orbits.cache_clear()
    p2 = enumerate_orbits(ActionSpec("sigma-conj", MU, 2, 1))
    assert p1 is not p2
    assert p1.orbits == p2.orbits


def test_budget_guard():
    # the zip engines enumerate GL_3(F_5), 1,488,000 matrices; sigma-conj
    # on GL_3(F_4) needs the class census, 238,140 classes
    for kind, q in (("zip-normal", 5), ("sigma-conj", 4)):
        with pytest.raises(BudgetExceeded):
            enumerate_orbits(ActionSpec(kind, Cocharacter((1, 0, 0)), q))


def test_chain_compare_q2():
    rep = chain_compare(MU, 2, 1)
    assert rep["passed"]
    assert rep["partitions_coincide"] and rep["tau_transport"] and rep["chain_cycles_back"]


def test_chain_compare_q4_nontrivial_frobenius():
    rep = chain_compare(MU, 4, 1)
    assert rep["passed"]


def test_chain_compare_tau_trivial():
    # tau = sigma^0 collapses the chain: everything coincides immediately
    rep = chain_compare(MU, 2, 0)
    assert rep["passed"]


def test_chain_cycles_back_after_exactly_one_period(monkeypatch):
    # a partition of GL_2(F_4) that sigma moves: {I, diag(w, 1)} is one block
    # and every other element a singleton. sigma has period 2 on F_4, so the
    # chain returns after two steps and not after one or three
    import loopzip.orbits as orbits
    from loopzip.grpdata import enumerate_gl_flat

    ident, diag_w = (1, 0, 0, 1), (2, 0, 0, 1)  # w has code 2
    blocks = frozenset([frozenset([ident, diag_w])]
                       + [frozenset([g]) for g in enumerate_gl_flat(FieldSpec.for_q(4), 2)
                          if g not in (ident, diag_w)])
    monkeypatch.setattr(orbits, "enumerate_orbits",
                        lambda aspec: orbits.OrbitPartition((), 180, 0, blocks, {}))
    rep = chain_compare(MU, 4, 1)
    assert rep["partitions_coincide"] is True
    assert rep["tau_transport"] is False
    assert rep["chain_cycles_back"] is True
    assert rep["passed"] is False


def test_transport_q2():
    rep = transport_check(MU, 2, 1, samples=30, seed=2)
    assert rep["passed"]
    assert rep["source_orbits"] == rep["target_orbits"]


def test_transport_q4():
    rep = transport_check(MU, 4, 1, samples=30, seed=2)
    assert rep["passed"]


def test_transport_fails_when_no_equivariance_sample_is_compared(monkeypatch):
    # the report counts the samples it compared, and passes only on all of them
    import loopzip.orbits as orbits

    assert transport_check(MU, 2, 1, samples=30, seed=2)["equivariance_samples"] == 30
    monkeypatch.setattr(orbits, "_equivariance_draws", lambda *args: iter(()))
    rep = transport_check(MU, 2, 1, samples=30, seed=2)
    assert rep["equivariance_samples"] == 0
    assert rep["equivariant"] and not rep["passed"]


def test_transport_is_not_well_defined_when_two_orbits_merge(monkeypatch):
    # one partial-Frobenius block holding two orbits maps to two conjugacy orbits
    import loopzip.orbits as orbits

    enumerate_real = orbits.enumerate_orbits

    def merged(aspec):
        part = enumerate_real(aspec)
        if aspec.kind != "partial-frobenius":
            return part
        first, second, *rest = sorted(part.blocks, key=min)
        return part._replace(blocks=frozenset([first | second, *rest]))

    monkeypatch.setattr(orbits, "enumerate_orbits", merged)
    rep = transport_check(MU, 2, 1, samples=30, seed=2)
    assert rep["well_defined"] is False and rep["equivariant"]
    assert rep["passed"] is False


def test_weyl_reps_gl2():
    rep = weyl_reps_report(MU, 2)
    assert rep["rep_count"] == 2
    assert rep["pairwise_distinct"] and rep["count_at_least_reps"]


def test_weyl_reps_gl3():
    rep = weyl_reps_report(Cocharacter((1, 1, 0)), 2)
    assert rep["rep_count"] == 3
    assert rep["pairwise_distinct"] and rep["orbit_count"] >= 3


def test_weyl_reps_fail_when_orbits_are_fewer_than_representatives(monkeypatch):
    # a sigma-conj partition with fewer orbits than representatives, its
    # representative map intact, fails the count check and the report
    import loopzip.orbits as orbits

    enumerate_real = orbits.enumerate_orbits

    def fewer_orbits(aspec):
        part = enumerate_real(aspec)
        return part._replace(orbits=part.orbits[:1])

    monkeypatch.setattr(orbits, "enumerate_orbits", fewer_orbits)
    rep = weyl_reps_report(MU, 2)
    assert rep["rep_count"] == 2 and rep["orbit_count"] == 1
    assert rep["pairwise_distinct"]
    assert rep["count_at_least_reps"] is False
    assert rep["passed"] is False


def test_weyl_reps_trivial_mu():
    rep = weyl_reps_report(Cocharacter((0, 0)), 2)
    assert rep["rep_count"] == 1 and rep["passed"]


def test_sigma_conj_action_matches_class_pipeline():
    """Acting on the representative pair agrees with conjugating the loop
    matrix and re-running the decomposition pipeline."""
    import random

    from coset_oracle import lift
    from loopzip.coset import canonical_flat, class_of, pair_matrix
    from loopzip.series import LaurentElt
    from loopzip.grpdata import enumerate_gl_flat
    from loopzip.matring import flat_frobenius, flat_mul

    spec = FieldSpec.for_q(4)
    gl = enumerate_gl_flat(spec, 2)
    rng = random.Random(3)
    for _ in range(15):
        g1 = gl[rng.randrange(len(gl))]
        g2 = gl[rng.randrange(len(gl))]
        g = gl[rng.randrange(len(gl))]
        shortcut = canonical_flat(
            spec, MU,
            flat_mul(spec, 2, g1, g),
            flat_mul(spec, 2, g2, flat_frobenius(spec, g, 1)),
        )
        one = LaurentElt.one(spec, 6)
        x = pair_matrix(MU, g1, g2, one)
        gm = lift(one, 2, g)
        tgm = lift(one, 2, flat_frobenius(spec, g, 1))
        moved = gm.inverse() * x * tgm
        assert class_of(moved, MU) == shortcut


def test_chain_suite_enumeration_count():
    # mu is its own Frobenius twist, so chain_compare reuses its partition,
    # and transport_check reads the partial-Frobenius one from the cache
    from loopzip.suites import run_suites

    enumerate_orbits.cache_clear()
    cfg = {"mu": [1, 0], "q": 2, "tau": 1, "seed": 0}
    assert run_suites(["chain"], cfg)["passed"]
    info = enumerate_orbits.cache_info()
    assert (info.misses, info.hits) == (3, 1)
