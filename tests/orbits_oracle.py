"""Reference orbit partition by union-find.

The computation that the one-walk-per-orbit engine in `loopzip.orbits`
replaced: every point is joined with its image under every generator, and
the orbits are read off the roots afterwards. Its orbit list, blocks and
point -> representative map are what the engine must reproduce.
"""

from __future__ import annotations

import hashlib
import sys

from loopzip.grpdata import Cocharacter
from loopzip.orbits import ACTION_KINDS, ActionSpec, _action, enumerate_orbits

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
    movers = [action.act(g) for g in action.gens]
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


def full_orbit_comparison() -> int:
    """The engine against union-find on every case of ORBIT_CASES.  Prints one
    line per case and returns the number of mismatching cases."""
    total = 0
    for kind, q, weights, tau in ORBIT_CASES:
        aspec = ActionSpec(kind, Cocharacter(weights), q, tau)
        bad = partition_mismatch(aspec)
        total += bad
        part = enumerate_orbits(aspec)
        print(f"{kind} q={q} mu={weights} tau={tau}: {part.total} points, "
              f"{len(part.orbits)} orbits, {'mismatch' if bad else 'equal'}")
    return total


if __name__ == "__main__":
    # python tests/orbits_oracle.py  (with src on PYTHONPATH): the full comparison
    sys.exit(1 if full_orbit_comparison() else 0)
