"""Exhaustive orbit engines for the four finite group actions.

Each orbit is walked once from its first unseen point, applying every
generator of the acting group to every point it reaches. The generators
are Steinberg's small sets from `grpdata`: root elements I + c E_ij over
the F_p-basis codes c = p^k, plus diag(zeta, 1, ...) with zeta primitive
(one for GL_n, one per Levi block of the zip groups, none at q = 2).
Representatives are the lexicographically least members, for cross-run
determinism.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Callable, NamedTuple

from .coset import (canonical_flat, class_census, class_of, default_precision, embed_after_mu,
                    lifted_product)
from .gf import FieldSpec
from .grpdata import (
    Cocharacter,
    enumerate_gl_flat,
    gl_generators,
    gl_order,
    random_gl_flat,
    random_levi_flat,
    random_unipotent_flat,
    zip_group_order,
    zip_pair_generators,
)
from .matring import flat_frobenius, flat_identity, flat_inverse, flat_mul
from .series import LaurentElt
from .weyl import longest_element, min_coset_reps

ACTION_KINDS = ("zip-normal", "zip-frobenius", "partial-frobenius", "sigma-conj")


class ActionSpec(NamedTuple):
    kind: str
    mu: Cocharacter
    q: int
    tau_power: int = 1


class OrbitPartition(NamedTuple):
    """Orbit list with lex-min representatives, blocks and representative map."""

    orbits: tuple  # (representative, size, members_hash), by representative
    total: int
    acting_order: int
    blocks: frozenset  # of frozensets
    root: MappingProxyType  # point -> representative of its orbit


class Action(NamedTuple):
    """One finite right action, as read by the orbit engine and the axioms check.

    `act(g)` returns the map x -> x.g, so work that depends on g alone (an
    inverse, a Frobenius image) is done once per group element.
    """

    points: list  # the acted set, each point a hashable flat encoding
    gens: list  # a generating set of the acting group
    law: Callable  # the group multiplication
    identity: tuple
    draw: Callable  # rng -> one uniformly drawn group element, for sampling
    act: Callable
    order: int


def _action(aspec: ActionSpec) -> Action:
    if aspec.kind not in ACTION_KINDS:
        raise ValueError(f"unknown action kind {aspec.kind}")
    spec = FieldSpec.for_q(aspec.q)
    mu = aspec.mu
    n = mu.n
    tau = aspec.tau_power
    ident = flat_identity(n)

    def mul(a, b):
        return flat_mul(spec, n, a, b)

    if aspec.kind == "sigma-conj":
        # G on class representatives: (g1, g2).g = class of (g1 g, g2 tau(g))
        def act(g):
            tg = flat_frobenius(spec, g, tau)
            return lambda pair: canonical_flat(spec, mu, mul(pair[0], g), mul(pair[1], tg))

        return Action(list(class_census(mu, spec)), gl_generators(spec, n), mul, ident,
                      lambda rng: random_gl_flat(spec, n, rng), act,
                      gl_order(n, aspec.q))

    # zip-style: the zip group {(p_-, p_+)}, twisted by tau^group_tau, on G by
    # g.(p_-, p_+) = p_+^(-1) g tau^act_tau(p_-)
    group_tau, act_tau = {"zip-normal": (0, 0), "zip-frobenius": (tau, 0),
                          "partial-frobenius": (0, tau)}[aspec.kind]

    def act(pair):
        pm, pp = pair
        left = flat_inverse(spec, n, pp)
        right = flat_frobenius(spec, pm, act_tau)
        return lambda g: mul(mul(left, g), right)

    def draw(rng):
        # (u_-, m, u_+) -> (u_- tau^group_tau(m), u_+ m) is a bijection onto the group
        m = random_levi_flat(spec, mu, rng)
        return (mul(random_unipotent_flat(spec, mu, -1, rng), flat_frobenius(spec, m, group_tau)),
                mul(random_unipotent_flat(spec, mu, +1, rng), m))

    return Action(
        list(enumerate_gl_flat(spec, n)),
        zip_pair_generators(spec, mu, group_tau),
        lambda u, v: (mul(u[0], v[0]), mul(u[1], v[1])),
        (ident, ident),
        draw,
        act,
        zip_group_order(mu, aspec.q),
    )


@lru_cache(maxsize=None)
def enumerate_orbits(aspec: ActionSpec) -> OrbitPartition:
    """Exact orbit partition, one walk per orbit.

    The points are taken in order; each one not yet reached starts a walk
    that applies every generator once to every point it reaches, which for
    a finite group is the whole orbit, so the cost is points x generators:
    GL_2(F_4) sigma-conjugation has 5 generators and its zip groups at
    mu (1, 0) have 6 (`grpdata.gl_generators`, `zip_pair_generators`).
    Cached by the `aspec` value: a partition holds only tuples, frozensets
    and a read-only map, so every caller may share it.
    """
    action = _action(aspec)
    movers = [action.act(g) for g in action.gens]
    root: dict = {}
    orbits = []
    blocks = []
    for start in action.points:
        if start in root:
            continue
        walk = [start]
        block = {start}
        for x in walk:
            for move in movers:
                y = move(x)
                if y not in block:
                    block.add(y)
                    walk.append(y)
        walk.sort()
        rep = walk[0]
        root.update(dict.fromkeys(walk, rep))
        digest = hashlib.sha256(repr(walk).encode()).hexdigest()[:16]
        orbits.append((rep, len(walk), digest))
        blocks.append(frozenset(block))
    orbits.sort(key=lambda o: o[0])
    total = len(action.points)
    # a walk that leaves the point set counts the points outside it too
    if sum(o[1] for o in orbits) != total:
        raise AssertionError("orbit sizes do not sum to the number of points")
    if any(action.order % o[1] for o in orbits):
        raise AssertionError("orbit size must divide group order")
    return OrbitPartition(tuple(orbits), total, action.order, frozenset(blocks),
                          MappingProxyType(root))


def check_action_axioms(aspec: ActionSpec, samples: int = 20, seed: int = 0) -> bool:
    """Spot-check: identity acts trivially; (x.g).h = x.(g h) on random triples."""
    action = _action(aspec)
    act = action.act
    rng = random.Random(seed)
    for _ in range(samples):
        x = rng.choice(action.points)
        g = action.draw(rng)
        h = action.draw(rng)
        if act(action.identity)(x) != x:
            return False
        if act(h)(act(g)(x)) != act(action.law(g, h))(x):
            return False
    return True


# -- the comparison chain ---------------------------------------------------------


def _tau_image(blocks: frozenset, spec: FieldSpec, times: int) -> frozenset:
    return frozenset(
        frozenset(flat_frobenius(spec, g, times) for g in blk) for blk in blocks
    )


def chain_compare(mu: Cocharacter, q: int, m: int) -> dict:
    """Partition comparisons along the periodic chain of partial Frobenii.

    (i) the twisted-multiplication partition equals the Frobenius-zip
    partition of G(F_q); (ii) elementwise Frobenius transports the zip
    partition onto the twisted partition for the twisted cocharacter;
    (iii) iterating the transport for one full Frobenius period returns
    the starting partition.
    """
    spec = FieldSpec.for_q(q)
    part_r = enumerate_orbits(ActionSpec("partial-frobenius", mu, q, m)).blocks
    part_e = enumerate_orbits(ActionSpec("zip-frobenius", mu, q, m)).blocks
    same = part_r == part_e

    # a split diagonal cocharacter is Frobenius-fixed, so its twist is mu itself
    transported = _tau_image(part_e, spec, m) == part_r

    # one full period of tau = sigma^m on F_q
    period = spec.m // gcd(spec.m, m) if m else 1
    current = part_r
    for _ in range(period):
        current = _tau_image(current, spec, m)
    cycles = current == part_r

    return {
        "name": "partition-chain",
        "mu": list(mu.weights),
        "q": q,
        "tau_power": m,
        "orbit_count": len(part_r),
        "partitions_coincide": same,
        "tau_transport": transported,
        "chain_cycles_back": cycles,
        "passed": same and transported and cycles,
    }


def transport_check(mu: Cocharacter, q: int, m: int, samples: int = 50,
                    seed: int = 0) -> dict:
    """g -> class of mu(t) g matches twisted orbits with conjugacy orbits."""
    spec = FieldSpec.for_q(q)
    n = mu.n

    sigma_part = enumerate_orbits(ActionSpec("sigma-conj", mu, q, m))
    part_r = enumerate_orbits(ActionSpec("partial-frobenius", mu, q, m))

    image_roots = []
    well_defined = True
    for blk in sorted(part_r.blocks, key=min):
        roots = {sigma_part.root[embed_after_mu(spec, mu, g)] for g in blk}
        if len(roots) != 1:
            well_defined = False
        image_roots.append(min(roots))
    injective = len(set(image_roots)) == len(image_roots)
    surjective = set(image_roots) == {rep for rep, _, _ in sigma_part.orbits}

    # sampled equivariance of the embedding against the minus-parabolic action;
    # only the samples actually compared count towards the requested number
    equivariant = True
    compared = 0
    for g, pf, mf in _equivariance_draws(spec, mu, samples, seed):
        minv = flat_inverse(spec, n, mf)
        tg = flat_mul(spec, n, g, flat_frobenius(spec, pf, m))
        lhs = embed_after_mu(spec, mu, flat_mul(spec, n, minv, tg))
        rhs = canonical_flat(spec, mu, pf, tg)
        equivariant &= lhs == rhs
        compared += 1
    return {
        "name": "orbit-transport",
        "mu": list(mu.weights),
        "q": q,
        "tau_power": m,
        "source_orbits": len(part_r.orbits),
        "target_orbits": len(sigma_part.orbits),
        "well_defined": well_defined,
        "injective": injective,
        "surjective": surjective,
        "equivariance_samples": compared,
        "equivariant": equivariant,
        "passed": (well_defined and injective and surjective and equivariant
                   and compared == samples),
    }


def _equivariance_draws(spec: FieldSpec, mu: Cocharacter, samples: int, seed: int):
    """`samples` uniform (g in G, p in P_-, Levi part of p): g, then the Levi
    part m, then p = u_- m for a uniform u_- in U_-."""
    rng = random.Random(seed)
    for _ in range(samples):
        g = random_gl_flat(spec, mu.n, rng)
        mf = random_levi_flat(spec, mu, rng)
        yield g, flat_mul(spec, mu.n, random_unipotent_flat(spec, mu, -1, rng), mf), mf


def weyl_reps_report(mu: Cocharacter, q: int, m: int = 1, prec: int = None) -> dict:
    """The minimal-coset-representative matrices land in pairwise distinct
    conjugacy orbits of the class set; orbit count is at least their number."""
    spec = FieldSpec.for_q(q)
    n = mu.n
    prec = prec or default_precision(mu)
    reps = min_coset_reps(n, mu.type_J)
    w0 = longest_element(n)
    w0j = longest_element(n, mu.type_J)
    sigma_part = enumerate_orbits(ActionSpec("sigma-conj", mu, q, m))

    one = LaurentElt.one(spec, prec)
    ident = flat_identity(n)
    roots = []
    for w in reps:
        perm = w * w0 * w0j
        flat = [0] * (n * n)
        for j in range(1, n + 1):
            flat[(perm(j) - 1) * n + (j - 1)] = 1
        roots.append(sigma_part.root[class_of(lifted_product(mu, flat, ident, one), mu)])
    distinct = len(set(roots)) == len(roots)
    return {
        "name": "representative-conjugacy-distinctness",
        "mu": list(mu.weights),
        "q": q,
        "tau_power": m,
        "precision": prec,
        "rep_count": len(reps),
        "orbit_count": len(sigma_part.orbits),
        "pairwise_distinct": distinct,
        "count_at_least_reps": len(sigma_part.orbits) >= len(reps),
        "passed": distinct and len(sigma_part.orbits) >= len(reps),
    }
