"""Reference orbit partition by union-find over whole-subgroup generators.

The computation that the one-walk-per-orbit engine in `loopzip.orbits`
replaced: every point is joined with its image under every generator, and
the orbits are read off the roots afterwards. It does not share the
engine's generators: it unions over every transvection and diagonal matrix
for GL_n, and over all of U_-, U_+ and the Levi M for the zip groups, where
the engine uses root elements over an F_p-basis and one torus element per
Levi block. Its orbit list, blocks and point -> representative map are what
the engine must reproduce.

The whole groups it unions over are listed here, as flat code tuples: U_+,
U_-, the Levi M, P_+ and P_- and the zip groups. src never lists them; it
draws their elements (`Action.draw`, `orbits._equivariance_draws`), and the
support of those draws must be the listing.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys

from loopzip.errors import check_budget
from loopzip.gf import SIZES, FieldSpec
from loopzip.grpdata import (Cocharacter, block_positions, enumerate_gl_flat, unipotent_order,
                             zip_group_order)
from loopzip.matring import flat_frobenius, flat_identity, flat_invertible, flat_mul
from loopzip.orbits import (ACTION_KINDS, ActionSpec, _action, _equivariance_draws,
                            enumerate_orbits)

PAIR_CAP = 2_000_000  # pairs built by a zip group enumeration

# (kind, q, weights, tau): every kind on GL2 over F2, F3 and F4 and on GL3(F2),
# each in three weights, and on GL2(F4) twisted by the square of Frobenius
ORBIT_CASES = [
    (kind, q, weights, tau)
    for q, weights, tau in (
        [(q, w, 1) for q in (2, 3, 4) for w in [(1, 0), (0, 0), (1, -1)]]
        + [(2, w, 1) for w in [(1, 1, 0), (2, 1, 0), (1, 0, 0)]]
        + [(4, w, 2) for w in [(1, 0), (0, 0), (1, -1)]]
    )
    for kind in ACTION_KINDS
]
# cases only the full comparison runs, which takes about eighteen minutes with
# them: every kind on GL3(F3) at two weights, and on GL2 over F5, F8 and F9
# at (1, 0) and (0, 0); the zip kinds on GL2(F8) and GL2(F9) at (0, 0) take
# fifteen of those minutes, since there the oracle's Levi generators are all
# of GL2
WIDE_ORBIT_CASES = [
    (kind, q, weights, 1)
    for q, weights in (
        [(3, w) for w in [(1, 0, 0), (1, 1, 0)]]
        + [(q, w) for q in (5, 8, 9) for w in [(1, 0), (0, 0)]]
    )
    for kind in ACTION_KINDS
]

# (n, q): the GL_n whose row-by-row listing tier-1 compares with the scan, and
# the larger ones only the full comparison adds
GL_CASES = [(1, q) for q in SIZES] + [(2, q) for q in SIZES if q < 25] + [(3, 2), (3, 3)]
WIDE_GL_CASES = [(4, 2), (3, 4), (2, 25)]

# (q, weights): the groups whose draws tier-1 compares with their listing, in
# every twist tau^0, tau^1 and tau^2 for the zip groups
DRAW_CASES = ([(q, w) for q in (2, 3, 4) for w in [(1, 0), (0, 0), (1, -1)]]
              + [(2, (1, 1, 0)), (2, (2, 1, 0))])


def scan_gl_flat(spec, n: int) -> tuple:
    """GL_n(F_q) by the scan that the row-by-row listing replaced: all q^(n^2)
    candidates in lex order, each kept when it is invertible."""
    return tuple(flat for flat in itertools.product(range(spec.q), repeat=n * n)
                 if flat_invertible(spec, n, flat))


def gl_listing_mismatches(cases) -> tuple:
    """(matrices listed, mismatching groups): `enumerate_gl_flat` against
    `scan_gl_flat` on each (n, q) of `cases`."""
    listed = bad = 0
    for n, q in cases:
        spec = FieldSpec.for_q(q)
        gl = enumerate_gl_flat(spec, n)
        listed += len(gl)
        bad += gl != scan_gl_flat(spec, n)
    return listed, bad


def enumerate_unipotent_flat(spec, mu, sign: int) -> list:
    """U_+ (sign=+1) or U_- (sign=-1) as flat matrices."""
    n = mu.n
    positions = block_positions(mu, sign)
    out = []
    base = list(flat_identity(n))
    for vals in itertools.product(range(spec.q), repeat=len(positions)):
        flat = base[:]
        for (i, j), c in zip(positions, vals):
            flat[i * n + j] = c
        out.append(tuple(flat))
    return out


def enumerate_levi_flat(spec, mu) -> list:
    """The common Levi M: block-diagonal matrices with invertible blocks."""
    n = mu.n
    offs = []
    pos = 0
    for _, s in mu.blocks:
        offs.append((pos, s))
        pos += s
    per_block = [enumerate_gl_flat(spec, s) for _, s in offs]
    out = []
    for combo in itertools.product(*per_block):
        flat = [0] * (n * n)
        for (start, s), blk in zip(offs, combo):
            for i in range(s):
                for j in range(s):
                    flat[(start + i) * n + (start + j)] = blk[i * s + j]
        out.append(tuple(flat))
    return out


def enumerate_parabolic_flat(spec, mu, sign: int) -> list:
    """P_+ (sign=+1) or P_- (sign=-1) as pairs (u m, m): each element with its Levi part."""
    n = mu.n
    levi = enumerate_levi_flat(spec, mu)
    return [
        (flat_mul(spec, n, u, m), m)
        for u in enumerate_unipotent_flat(spec, mu, sign)
        for m in levi
    ]


def enumerate_zip_pairs_flat(spec, mu, tau_power: int = 0) -> list:
    """Zip group as pairs (p_-, p_+) = (u_- m', u_+ m), m' = tau^tau_power(m);
    tau_power 0 is the untwisted group."""
    n, size = mu.n, zip_group_order(mu, spec.q)
    check_budget(size <= PAIR_CAP, "zip group enumeration",
                 f"n={n}, q={spec.q} builds {size:,} pairs", f"{PAIR_CAP:,} pairs")
    ups = enumerate_unipotent_flat(spec, mu, +1)
    downs = enumerate_unipotent_flat(spec, mu, -1)
    out = []
    for m in enumerate_levi_flat(spec, mu):
        mt = flat_frobenius(spec, m, tau_power)
        for um in downs:
            pm = flat_mul(spec, n, um, mt)
            for up in ups:
                out.append((pm, flat_mul(spec, n, up, m)))
    return out


def zip_draws_mismatch(spec, mu, tau_power: int) -> bool:
    """The support of 30 |group| seeded `Action.draw` draws of the zip group
    twisted by tau^tau_power is not its enumeration: a draw outside the group,
    or an element never drawn, which a uniform draw misses with probability
    below |group| e^(-30)."""
    group = set(enumerate_zip_pairs_flat(spec, mu, tau_power))
    draw = _action(ActionSpec("zip-frobenius", mu, spec.q, tau_power)).draw
    rng = random.Random(0)
    return {draw(rng) for _ in range(30 * len(group))} != group


def parabolic_draws_mismatch(spec, mu) -> bool:
    """As `zip_draws_mismatch`, for the (p, Levi part of p) pairs of P_- that
    the transport check draws, with every g drawn beside them in GL_n."""
    group = set(enumerate_parabolic_flat(spec, mu, -1))
    draws = list(_equivariance_draws(spec, mu, 30 * len(group), 0))
    gl = set(enumerate_gl_flat(spec, mu.n))
    return {(p, m) for _, p, m in draws} != group or not {g for g, _, _ in draws} <= gl


def transvection_generators(spec, n: int) -> list:
    """I + c E_ij over all off-diagonal positions and nonzero c; generates SL_n."""
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in range(1, spec.q):
                flat = list(flat_identity(n))
                flat[i * n + j] = c
                out.append(tuple(flat))
    return out


def gl_generators(spec, n: int) -> list:
    """Transvections plus every diagonal matrix; generates GL_n(F_q)."""
    out = transvection_generators(spec, n)
    for diag in itertools.product(range(1, spec.q), repeat=n):
        if all(c == 1 for c in diag):
            continue
        flat = [0] * (n * n)
        for i, c in enumerate(diag):
            flat[i * n + i] = c
        out.append(tuple(flat))
    return out


def zip_pair_generators(spec, mu, tau_power: int = 0) -> list:
    """Every element of U_- and of U_+, each paired with the identity, and the
    whole Levi as (tau^tau_power(m), m): the zip group of the given twist."""
    n = mu.n
    ident = flat_identity(n)
    gens = []
    for u in enumerate_unipotent_flat(spec, mu, -1):
        if u != ident:
            gens.append((u, ident))
    for u in enumerate_unipotent_flat(spec, mu, +1):
        if u != ident:
            gens.append((ident, u))
    for m in enumerate_levi_flat(spec, mu):
        if m != ident:
            gens.append((flat_frobenius(spec, m, tau_power), m))
    return gens


def oracle_generators(aspec) -> list:
    """The whole-subgroup generating set of the group acting in `aspec`: GL_n
    for sigma-conj, else the zip group, twisted by tau for zip-frobenius only."""
    spec = FieldSpec.for_q(aspec.q)
    if aspec.kind == "sigma-conj":
        return gl_generators(spec, aspec.mu.n)
    group_tau = aspec.tau_power if aspec.kind == "zip-frobenius" else 0
    return zip_pair_generators(spec, aspec.mu, group_tau)


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


def oracle_partition(aspec) -> tuple:
    """(orbits, blocks, root) of the action of `aspec`: the orbits as
    (least member, size, members_hash) sorted by least member, the frozenset
    of blocks, and the dict from each point to the least member of its orbit."""
    action = _action(aspec)
    points = action.points
    movers = [action.act(g) for g in oracle_generators(aspec)]
    uf = UnionFind(points)
    for x in points:
        for move in movers:
            uf.union(x, move(x))
    groups: dict = {}
    for x in points:
        groups.setdefault(uf.find(x), []).append(x)
    orbits, blocks, root = [], [], {}
    for members in groups.values():
        members.sort()
        digest = hashlib.sha256(repr(members).encode()).hexdigest()[:16]
        orbits.append((members[0], len(members), digest))
        blocks.append(frozenset(members))
        root.update(dict.fromkeys(members, members[0]))
    orbits.sort(key=lambda o: o[0])
    return tuple(orbits), frozenset(blocks), root


def partition_mismatch(aspec) -> bool:
    """The engine's orbits, blocks or representative map differ from the oracle's."""
    part = enumerate_orbits(aspec)
    return (part.orbits, part.blocks, dict(part.root)) != oracle_partition(aspec)


def full_draw_comparison() -> int:
    """The draws against the enumerations on every group of ORBIT_CASES and
    WIDE_ORBIT_CASES: each zip group in the twists tau^0 and tau^tau of its
    cases, and each P_-.  Prints one line per group and returns the number of
    mismatching groups."""
    zips, parabolics = set(), set()
    for _, q, weights, tau in ORBIT_CASES + WIDE_ORBIT_CASES:
        zips.update({(q, weights, 0), (q, weights, tau)})
        parabolics.add((q, weights))
    total = 0
    for q, weights, tau in sorted(zips):
        spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
        bad = zip_draws_mismatch(spec, mu, tau)
        total += bad
        print(f"zip group q={q} mu={weights} tau={tau}: {zip_group_order(mu, q)} elements, "
              f"{'mismatch' if bad else 'equal'}")
    for q, weights in sorted(parabolics):
        spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
        bad = parabolic_draws_mismatch(spec, mu)
        total += bad
        print(f"P_- q={q} mu={weights}: {zip_group_order(mu, q) // unipotent_order(mu, q)} "
              f"elements, {'mismatch' if bad else 'equal'}")
    return total


def full_orbit_comparison() -> int:
    """The engine against union-find on every case of ORBIT_CASES and
    WIDE_ORBIT_CASES.  Prints one line per case and returns the number of
    mismatching cases."""
    total = 0
    for kind, q, weights, tau in ORBIT_CASES + WIDE_ORBIT_CASES:
        aspec = ActionSpec(kind, Cocharacter(weights), q, tau)
        bad = partition_mismatch(aspec)
        total += bad
        part = enumerate_orbits(aspec)
        print(f"{kind} q={q} mu={weights} tau={tau}: {part.total} points, "
              f"{len(part.orbits)} orbits, {'mismatch' if bad else 'equal'}")
    return total


def full_gl_comparison() -> int:
    """The GL_n listing against the scan on every case of GL_CASES and
    WIDE_GL_CASES.  Prints one line per group and returns the number of
    mismatching groups."""
    total = 0
    for n, q in GL_CASES + WIDE_GL_CASES:
        listed, bad = gl_listing_mismatches([(n, q)])
        total += bad
        print(f"GL_{n}(F_{q}): {listed} matrices, {'mismatch' if bad else 'equal'}")
    return total


if __name__ == "__main__":
    # python tests/orbits_oracle.py  (with src on PYTHONPATH): the full comparisons
    sys.exit(1 if full_gl_comparison() + full_draw_comparison() + full_orbit_comparison()
             else 0)
