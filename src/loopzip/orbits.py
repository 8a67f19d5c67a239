"""Exhaustive orbit engines for the four finite group actions.

Partitions are computed by union-find over the acted set, driven by a
generating set of the acting group, with lexicographically minimal
representatives for cross-run determinism.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .coset import canonical_flat, class_census, class_of, mu_matrix
from .errors import BudgetExceeded
from .gf import FieldSpec
from .grpdata import (
    Cocharacter,
    SubgroupTag,
    enumerate_gl_flat,
    enumerate_parabolic_flat,
    gl_generators,
    gl_order,
    group_order,
    zip_pair_generators,
)
from .matring import LAURENT, flat_frobenius, flat_identity, flat_inverse, flat_mul
from .weyl import longest_element, min_coset_reps

ACTION_KINDS = ("zip-normal", "zip-frobenius", "partial-frobenius", "sigma-conj")


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    mu: Cocharacter
    q: int
    tau_power: int = 1

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind}")


class OrbitPartition:
    """Orbit list with lex-min representatives plus the raw block partition."""

    __slots__ = ("action", "orbits", "total", "acting_order", "blocks")

    def __init__(self, action, orbits, total, acting_order, blocks):
        self.action = action
        self.orbits = tuple(orbits)  # (representative, size, members_hash)
        self.total = total
        self.acting_order = acting_order
        self.blocks = blocks  # frozenset of frozensets


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _budget(aspec: ActionSpec) -> None:
    if aspec.mu.n > 3 or aspec.q > 4:
        raise BudgetExceeded("orbit engines limited to n <= 3, q <= 4")


def _sigma_conj_action(spec: FieldSpec, mu: Cocharacter, tau: int):
    """G acting on class representatives: (g1, g2).g = class of (g1 g, g2 tau(g))."""
    n = mu.n

    def act(pair, g):
        return canonical_flat(
            spec, mu,
            flat_mul(spec, n, pair[0], g),
            flat_mul(spec, n, pair[1], flat_frobenius(spec, g, tau)),
        )

    return act


def _acted_set_and_action(aspec: ActionSpec):
    spec = FieldSpec.for_q(aspec.q)
    mu = aspec.mu
    n = mu.n
    if aspec.kind == "sigma-conj":
        points = list(class_census(mu, spec))
        act = _sigma_conj_action(spec, mu, aspec.tau_power)
        return points, gl_generators(spec, n), act, gl_order(n, aspec.q)

    points = list(enumerate_gl_flat(spec, n))
    if aspec.kind == "zip-normal":
        raw = zip_pair_generators(spec, mu)
        acts = [(flat_inverse(spec, n, pp), pm) for pm, pp in raw]
    elif aspec.kind == "zip-frobenius":
        raw = zip_pair_generators(spec, mu, frobenius=True, tau_power=aspec.tau_power)
        acts = [(flat_inverse(spec, n, pp), pm) for pm, pp in raw]
    else:  # partial-frobenius
        raw = zip_pair_generators(spec, mu)
        acts = [
            (flat_inverse(spec, n, pp), flat_frobenius(spec, pm, aspec.tau_power))
            for pm, pp in raw
        ]

    def act(g, gen):
        ppi, pm = gen
        return flat_mul(spec, n, flat_mul(spec, n, ppi, g), pm)

    order = group_order(SubgroupTag.ZipNormal, mu, aspec.q)
    return points, acts, act, order


def enumerate_orbits(aspec: ActionSpec) -> OrbitPartition:
    """Exact orbit partition by union-find over the enumerated acting set."""
    _budget(aspec)
    points, gens, act, order = _acted_set_and_action(aspec)
    uf = UnionFind(points)
    for x in points:
        for gen in gens:
            uf.union(x, act(x, gen))
    groups: dict = {}
    for x in points:
        groups.setdefault(uf.find(x), []).append(x)
    orbits = []
    blocks = []
    for members in groups.values():
        members.sort()
        rep = members[0]
        digest = hashlib.sha256(repr(members).encode()).hexdigest()[:16]
        orbits.append((rep, len(members), digest))
        blocks.append(frozenset(members))
    orbits.sort(key=lambda o: o[0])
    total = len(points)
    if sum(o[1] for o in orbits) != total:
        raise AssertionError("orbit sizes do not sum to the number of points")
    if any(order % o[1] for o in orbits):
        raise AssertionError("orbit size must divide group order")
    return OrbitPartition(aspec, orbits, total, order, frozenset(blocks))


def partition_blocks(part: OrbitPartition) -> frozenset:
    return part.blocks


def _root_of_class(part: OrbitPartition) -> dict:
    """Each acted point mapped to the least member of its orbit."""
    roots = {}
    for blk in partition_blocks(part):
        rep = min(blk)
        for member in blk:
            roots[member] = rep
    return roots


def check_action_axioms(aspec: ActionSpec, samples: int = 20, seed: int = 0) -> bool:
    """Spot-check: identity acts trivially; (x.g).h = x.(g h) on random triples."""
    _budget(aspec)
    spec = FieldSpec.for_q(aspec.q)
    mu = aspec.mu
    n = mu.n
    rng = random.Random(seed)
    gl = enumerate_gl_flat(spec, n)
    ident = flat_identity(n)
    tau = aspec.tau_power

    if aspec.kind == "sigma-conj":
        points = list(class_census(mu, spec))
        act = _sigma_conj_action(spec, mu, tau)
        for _ in range(samples):
            x = points[rng.randrange(len(points))]
            g = gl[rng.randrange(len(gl))]
            h = gl[rng.randrange(len(gl))]
            if act(x, ident) != x:
                return False
            if act(act(x, g), h) != act(x, flat_mul(spec, n, g, h)):
                return False
        return True

    # zip-style actions: elements of the zip group are (p_-, p_+) pairs
    from .grpdata import enumerate_zip_pairs_flat

    pairs = enumerate_zip_pairs_flat(
        spec, mu, frobenius=(aspec.kind == "zip-frobenius"), tau_power=tau
    )

    def act(g, pair):
        pm, pp = pair
        right = pm if aspec.kind != "partial-frobenius" else flat_frobenius(spec, pm, tau)
        return flat_mul(spec, n, flat_mul(spec, n, flat_inverse(spec, n, pp), g), right)

    for _ in range(samples):
        x = gl[rng.randrange(len(gl))]
        u = pairs[rng.randrange(len(pairs))]
        v = pairs[rng.randrange(len(pairs))]
        if act(x, (ident, ident)) != x:
            return False
        uv = (flat_mul(spec, n, u[0], v[0]), flat_mul(spec, n, u[1], v[1]))
        if act(act(x, u), v) != act(x, uv):
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
    part_r = partition_blocks(enumerate_orbits(ActionSpec("partial-frobenius", mu, q, m)))
    part_e = partition_blocks(enumerate_orbits(ActionSpec("zip-frobenius", mu, q, m)))
    same = part_r == part_e

    mu_t = mu.sigma_twist(m)
    part_r_twisted = partition_blocks(
        enumerate_orbits(ActionSpec("partial-frobenius", mu_t, q, m))
    )
    transported = _tau_image(part_e, spec, m) == part_r_twisted

    # one full period of tau = sigma^m on F_q
    from math import gcd

    period = spec.m // gcd(spec.m, m) if m else 1
    current = part_r
    for _ in range(period):
        current = _tau_image(current, spec, m)
    cycles = current == part_r

    return {
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
    ident = flat_identity(n)

    sigma_part = enumerate_orbits(ActionSpec("sigma-conj", mu, q, m))
    part_r = enumerate_orbits(ActionSpec("partial-frobenius", mu, q, m))
    root_of_class = _root_of_class(sigma_part)

    image_roots = []
    well_defined = True
    for blk in sorted(partition_blocks(part_r), key=min):
        roots = {root_of_class[canonical_flat(spec, mu, ident, g)] for g in blk}
        if len(roots) != 1:
            well_defined = False
        image_roots.append(min(roots))
    injective = len(set(image_roots)) == len(image_roots)
    surjective = set(image_roots) == {rep for rep, _, _ in sigma_part.orbits}

    # sampled equivariance of the embedding against the minus-parabolic action
    rng = random.Random(seed)
    gl = enumerate_gl_flat(spec, n)
    pminus = enumerate_parabolic_flat(spec, mu, -1)
    equivariant = True
    for _ in range(samples):
        g = gl[rng.randrange(len(gl))]
        pf, mf = pminus[rng.randrange(len(pminus))]
        minv = flat_inverse(spec, n, mf)
        tg = flat_mul(spec, n, g, flat_frobenius(spec, pf, m))
        lhs = canonical_flat(spec, mu, ident, flat_mul(spec, n, minv, tg))
        rhs = canonical_flat(spec, mu, pf, tg)
        if lhs != rhs:
            equivariant = False
    return {
        "mu": list(mu.weights),
        "q": q,
        "tau_power": m,
        "source_orbits": len(part_r.orbits),
        "target_orbits": len(sigma_part.orbits),
        "well_defined": well_defined,
        "injective": injective,
        "surjective": surjective,
        "equivariance_samples": samples,
        "equivariant": equivariant,
        "passed": well_defined and injective and surjective and equivariant,
    }


def weyl_reps_report(mu: Cocharacter, q: int, m: int = 1, prec: int = None) -> dict:
    """The minimal-coset-representative matrices land in pairwise distinct
    conjugacy orbits of the class set; orbit count is at least their number."""
    from .coset import default_precision, laurent_lift

    spec = FieldSpec.for_q(q)
    n = mu.n
    prec = prec or default_precision(mu)
    reps = min_coset_reps(n, mu.type_J, side="left")
    w0 = longest_element(n)
    w0j = longest_element(n, mu.type_J)
    sigma_part = enumerate_orbits(ActionSpec("sigma-conj", mu, q, m))
    root_of_class = _root_of_class(sigma_part)

    mu_t = mu_matrix(mu, LAURENT, spec=spec, prec=prec)
    roots = []
    for w in reps:
        perm = w * w0 * w0j
        flat = [0] * (n * n)
        for j in range(1, n + 1):
            flat[(perm(j) - 1) * n + (j - 1)] = 1
        pmat = laurent_lift(spec, n, flat, prec)
        c = class_of(pmat * mu_t, mu)
        roots.append(root_of_class[c.rep])
    distinct = len(set(roots)) == len(roots)
    return {
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
