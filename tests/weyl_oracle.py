"""Reference coset order built the way `loopzip.weyl` used to build it.

The computation that the tableau test, the bit-row order and the dealt
listing replaced: the Bruhat order by the rank-matrix criterion (n^2
counting sums per pair), W_J and ^JW listed by filtering all n!
permutations, and the order kept as a list of boolean lists, with the
partial-order axioms and the Hasse diagram read off by loops cubic in the
number of coset representatives.  The order is the same: w' <= w when
y * w' * delta(y)^(-1) <=_Bruhat w for some y in W_J, where
delta(y) = x y x^(-1) and x = w_0 w_{0,J}.  Its elements, `leq`,
`hasse_edges` and `to_json` are what `CosetPoset` must reproduce.
"""

from __future__ import annotations

import itertools
import sys

from loopzip.errors import ConventionError
from loopzip.weyl import (CosetPoset, Perm, bruhat_leq, longest_element, min_coset_reps,
                          parabolic_subgroup)


def all_permutations(n: int):
    """S_n in lex order of one-line notation."""
    for line in itertools.permutations(range(1, n + 1)):
        yield Perm(line)


def filtered_min_coset_reps(n: int, J) -> list:
    """^JW by filtering S_n: the w with w^(-1)(i) < w^(-1)(i + 1) for i in J,
    sorted by length, then one-line notation."""
    J = set(J)
    out = []
    for w in all_permutations(n):
        winv = w.inverse()
        if all(winv(i) < winv(i + 1) for i in J):
            out.append(w)
    out.sort(key=lambda w: (w.length(), w.line))
    return out


def rank_bruhat_leq(u, w) -> bool:
    """Rank-matrix criterion: #{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j}."""
    n = u.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cu = sum(1 for a in range(1, i + 1) if u(a) >= j)
            cw = sum(1 for a in range(1, i + 1) if w(a) >= j)
            if cu > cw:
                return False
    return True


def listed_parabolic(n: int, J) -> list:
    """W_J in lex order: every permutation that keeps each i in its J-run."""
    J = set(J)

    def same_run(a, b):
        return all(k in J for k in range(min(a, b), max(a, b)))

    return [w for w in all_permutations(n) if all(same_run(i, w(i)) for i in range(1, n + 1))]


class OraclePoset:
    """The coset order as a list of boolean lists, checked by cubic loops."""

    def __init__(self, n: int, J):
        self.elements = filtered_min_coset_reps(n, J)
        x = longest_element(n) * longest_element(n, J)
        xinv = x.inverse()
        deltas = [(y, (x * y * xinv).inverse()) for y in listed_parabolic(n, J)]
        self.relation = [
            [any(rank_bruhat_leq(y * wp * dinv, w) for y, dinv in deltas)
             for w in self.elements]
            for wp in self.elements
        ]
        self._verify_axioms()

    def _verify_axioms(self) -> None:
        m = len(self.elements)
        rel = self.relation
        for i in range(m):
            if not rel[i][i]:
                raise ConventionError("order is not reflexive")
        for i in range(m):
            for j in range(m):
                if i != j and rel[i][j] and rel[j][i]:
                    raise ConventionError("order is not antisymmetric")
        for i in range(m):
            for j in range(m):
                if not rel[i][j]:
                    continue
                for k in range(m):
                    if rel[j][k] and not rel[i][k]:
                        raise ConventionError("transitivity fails")

    def hasse_edges(self) -> list:
        m = len(self.elements)
        rel = self.relation
        edges = []
        for i in range(m):
            for j in range(m):
                if i == j or not rel[i][j]:
                    continue
                if any(rel[i][k] and rel[k][j] for k in range(m) if k not in (i, j)):
                    continue
                edges.append((self.elements[i], self.elements[j]))
        return edges

    def to_json(self) -> dict:
        return {
            "elements": [list(w.line) for w in self.elements],
            "relation": [
                [list(self.elements[i].line), list(self.elements[j].line)]
                for i in range(len(self.elements))
                for j in range(len(self.elements))
                if self.relation[i][j] and i != j
            ],
        }


def bruhat_mismatches(n: int) -> tuple:
    """(pairs, mismatches): `bruhat_leq` against the rank matrix on all of S_n^2."""
    perms = list(all_permutations(n))
    bad = sum(bruhat_leq(u, w) != rank_bruhat_leq(u, w) for u in perms for w in perms)
    return len(perms) ** 2, bad


def poset_mismatches(n: int, J) -> tuple:
    """(elements, mismatches) of `CosetPoset(n, J)` against the oracle: one
    each for elements, leq (all pairs), hasse_edges and to_json that differ."""
    got, ref = CosetPoset(n, J), OraclePoset(n, J)
    bad = int(got.elements != ref.elements)
    bad += any(got.leq(u, w) != ref.relation[i][j]
               for i, u in enumerate(ref.elements) for j, w in enumerate(ref.elements))
    bad += got.hasse_edges() != ref.hasse_edges()
    bad += got.to_json() != ref.to_json()
    return len(ref.elements), bad


def all_types(n: int):
    """Every J, a subset of the simple reflections 1..n-1."""
    for r in range(n):
        yield from (set(J) for J in itertools.combinations(range(1, n), r))


def coset_rep_mismatches(top: int) -> tuple:
    """(types, mismatches): `min_coset_reps(n, J)` against the filter, list
    and order, for every n <= top and every J."""
    types = bad = 0
    for n in range(1, top + 1):
        for J in all_types(n):
            types += 1
            bad += min_coset_reps(n, J) != filtered_min_coset_reps(n, J)
    return types, bad


def full_comparison(top: int = 6) -> int:
    """Bruhat pairs, W_J listings and coset orders for every n <= top and
    every J (`POSET_CAP` admits them all up to n = 6).  Prints one line per
    n and returns the number of mismatches."""
    total = 0
    for n in range(1, top + 1):
        pairs, bad = bruhat_mismatches(n)
        orders = elements = 0
        for J in all_types(n):
            bad += list(parabolic_subgroup(n, J)) != listed_parabolic(n, J)
            m, bad_order = poset_mismatches(n, J)
            orders += 1
            elements += m
            bad += bad_order
        total += bad
        print(f"n={n}: {pairs} Bruhat pairs, {orders} W_J listings and coset orders "
              f"({elements} elements), {bad} mismatches")
    return total


if __name__ == "__main__":
    # python tests/weyl_oracle.py  (with src on PYTHONPATH): the full comparisons
    types, rep_bad = coset_rep_mismatches(8)
    print(f"n<=8: min_coset_reps against the S_n filter on {types} types J, {rep_bad} mismatches")
    sys.exit(1 if rep_bad + full_comparison() else 0)
