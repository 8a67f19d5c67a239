"""S_n as the Weyl group of GL_n: Bruhat order, coset representatives,
the twisted coset partial order, and the two strata parametrizations."""

from __future__ import annotations

import itertools
from math import factorial, prod

from .errors import ConventionError, NotMinimalRep, check_budget

POSET_CAP = 600_000  # Bruhat tests of a coset order: m^2 |W_J| = (n!)^2 / |W_J|


class Perm:
    """Permutation of {1..n} in one-line notation; (u*v)(i) = u(v(i))."""

    __slots__ = ("line",)

    def __init__(self, line):
        line = tuple(line)
        if sorted(line) != list(range(1, len(line) + 1)):
            raise ValueError(f"not a permutation of 1..{len(line)}: {line}")
        self.line = line

    @property
    def n(self) -> int:
        return len(self.line)

    def __call__(self, i: int) -> int:
        return self.line[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(tuple(self.line[other.line[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.line):
            inv[v - 1] = i + 1
        return Perm(inv)

    def length(self) -> int:
        """Inversion count, the Coxeter length."""
        return sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.line[i] > self.line[j]
        )

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.line))

    def __eq__(self, other):
        return isinstance(other, Perm) and other.line == self.line

    def __hash__(self):
        return hash(self.line)

    def __lt__(self, other):
        return self.line < other.line

    def __repr__(self):
        return "[" + " ".join(map(str, self.line)) + "]"


def identity(n: int) -> Perm:
    return Perm(range(1, n + 1))


def simple_reflection(n: int, i: int) -> Perm:
    """The transposition s_i = (i, i+1), 1 <= i <= n-1."""
    line = list(range(1, n + 1))
    line[i - 1], line[i] = line[i], line[i - 1]
    return Perm(line)


def all_permutations(n: int):
    for line in itertools.permutations(range(1, n + 1)):
        yield Perm(line)


def _runs(n: int, J) -> list:
    """Maximal intervals of 1..n glued by the simple reflections in J."""
    runs = []
    start = 1
    for i in range(1, n):
        if i not in J:
            runs.append((start, i))
            start = i + 1
    runs.append((start, n))
    return runs


def longest_element(n: int, J=None) -> Perm:
    """Longest element of W_J (all of W when J is None)."""
    if J is None:
        J = set(range(1, n))
    line = list(range(1, n + 1))
    for a, b in _runs(n, set(J)):
        line[a - 1 : b] = reversed(line[a - 1 : b])
    return Perm(line)


def parabolic_subgroup(n: int, J) -> list:
    """All elements of W_J: permutations preserving each J-interval."""
    runs = _runs(n, set(J))
    out = []
    for w in all_permutations(n):
        if all(a <= w(i) <= b for a, b in runs for i in range(a, b + 1)):
            out.append(w)
    return out


def min_coset_reps(n: int, J) -> list:
    """Minimal length representatives of W_J \\ W."""
    J = set(J)
    out = []
    for w in all_permutations(n):
        winv = w.inverse()
        if all(winv(i) < winv(i + 1) for i in J):
            out.append(w)
    out.sort(key=lambda w: (w.length(), w.line))
    return out


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Rank-matrix criterion for the Bruhat order."""
    if u.n != w.n:
        raise ValueError("mismatched sizes")
    n = u.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cu = sum(1 for a in range(1, i + 1) if u(a) >= j)
            cw = sum(1 for a in range(1, i + 1) if w(a) >= j)
            if cu > cw:
                return False
    return True


def reduced_word(w: Perm) -> tuple:
    """One reduced word for w, peeling the smallest right descent."""
    word = []
    cur = w
    while not cur.is_identity():
        for i in range(1, cur.n):
            if cur(i) > cur(i + 1):
                word.append(i)
                cur = cur * simple_reflection(cur.n, i)
                break
    return tuple(reversed(word))


class CosetPoset:
    """The set of minimal coset representatives with a partial order.

    The order is the twisted refinement of the Bruhat order: w' <= w when
    y * w' * delta(y)^(-1) <=_Bruhat w for some y in W_J, where
    delta(y) = twist(x y x^(-1)) and x = w_0 w_{0,J}.  Construction
    verifies the partial-order axioms and raises ConventionError on
    failure: a broken twist convention must never be silently accepted.
    """

    def __init__(self, n: int, J, twist=None):
        self.n = n
        self.J = frozenset(J)
        tests = factorial(n) ** 2 // prod(factorial(b - a + 1) for a, b in _runs(n, self.J))
        check_budget(tests <= POSET_CAP, "coset order",
                     f"n={n}, J={sorted(self.J)} makes {tests:,} Bruhat tests",
                     f"{POSET_CAP:,} Bruhat tests")
        self.elements = min_coset_reps(n, self.J)
        self.index = {w: i for i, w in enumerate(self.elements)}
        wj = parabolic_subgroup(n, self.J)
        x = longest_element(n) * longest_element(n, self.J)
        xinv = x.inverse()
        twist = twist or (lambda w: w)
        deltas = [(y, twist(x * y * xinv).inverse()) for y in wj]
        m = len(self.elements)
        self.relation = [
            [
                any(bruhat_leq(y * wp * dinv, w) for y, dinv in deltas)
                for w in self.elements
            ]
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
                    raise ConventionError(
                        f"antisymmetry fails between {self.elements[i]} "
                        f"and {self.elements[j]}; check the twist convention"
                    )
        for i in range(m):
            for j in range(m):
                if not rel[i][j]:
                    continue
                for k in range(m):
                    if rel[j][k] and not rel[i][k]:
                        raise ConventionError("transitivity fails")

    def leq(self, u: Perm, w: Perm) -> bool:
        return self.relation[self.index[u]][self.index[w]]

    def hasse_edges(self) -> list:
        """Covering relations only (transitive reduction of the order)."""
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

    def to_dot(self) -> str:
        def name(w):
            return '"' + "".join(map(str, w.line)) + '"'

        lines = ["digraph coset_order {"]
        for w in self.elements:
            lines.append(f"  {name(w)};")
        for u, w in self.hasse_edges():
            lines.append(f"  {name(u)} -> {name(w)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "elements": [list(w.line) for w in self.elements],
            "relation": [
                [list(u.line), list(w.line)]
                for u in self.elements
                for w in self.elements
                if self.leq(u, w) and u != w
            ],
        }


def _check_min_rep(w: Perm, J) -> None:
    if any(w.inverse()(i) > w.inverse()(i + 1) for i in J):
        raise NotMinimalRep(f"{w} is not minimal in its W_J coset, J={set(J)}")


def shtuka_parametrization(w: Perm, mu) -> tuple:
    """Strata label on the double-coset side: (w w_0 w_{0,mu}, t^mu).

    Returns the permutation part together with the cocharacter as the
    uniformizer label; no matrix representative is chosen.
    """
    J = mu.type_J
    _check_min_rep(w, J)
    perm = w * longest_element(mu.n) * longest_element(mu.n, J)
    return perm, mu


def zip_parametrization(w: Perm, mu) -> Perm:
    """Strata label on the zip side: w_{0,mu} w w_0."""
    J = mu.type_J
    _check_min_rep(w, J)
    return longest_element(mu.n, J) * w * longest_element(mu.n)
