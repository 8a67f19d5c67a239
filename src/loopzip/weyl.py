"""S_n as the Weyl group of GL_n: Bruhat order, coset representatives,
the coset partial order, and the two strata parametrizations."""

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


def parabolic_subgroup(n: int, J):
    """The elements of W_J in lex order, one at a time: the permutations of
    each J-run, side by side."""
    runs = _runs(n, set(J))

    def fill(prefix):
        if len(runs) == len(prefix):
            yield Perm(itertools.chain.from_iterable(prefix))
            return
        a, b = runs[len(prefix)]
        for part in itertools.permutations(range(a, b + 1)):
            yield from fill(prefix + (part,))

    return fill(())


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
    """Tableau criterion: for each i, sorted u(1..i) <= sorted w(1..i) entrywise."""
    if u.n != w.n:
        raise ValueError("mismatched sizes")
    return all(all(a <= b for a, b in zip(sorted(u.line[:i]), sorted(w.line[:i])))
               for i in range(1, u.n))


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


def _bits(row: int):
    """Indices of the set bits of row, ascending."""
    while row:
        yield (row & -row).bit_length() - 1
        row &= row - 1


class CosetPoset:
    """The set of minimal coset representatives with a partial order.

    w' <= w when y * w' * delta(y)^(-1) <=_Bruhat w for some y in W_J,
    where delta(y) = x y x^(-1) and x = w_0 w_{0,J}.  Bit j of rows[i] is
    elements[i] <= elements[j]; a pair is not tested again once a y has
    decided it.  Construction verifies the partial-order axioms and raises
    ConventionError on failure: a broken convention is never accepted.
    """

    def __init__(self, n: int, J):
        self.J = frozenset(J)
        tests = factorial(n) ** 2 // prod(factorial(b - a + 1) for a, b in _runs(n, self.J))
        check_budget(tests <= POSET_CAP, "coset order",
                     f"n={n}, J={sorted(self.J)} makes {tests:,} Bruhat tests",
                     f"{POSET_CAP:,} Bruhat tests")
        self.elements = min_coset_reps(n, self.J)
        self.index = {w: i for i, w in enumerate(self.elements)}
        x = longest_element(n) * longest_element(n, self.J)
        full = (1 << len(self.elements)) - 1
        self.rows = []
        for wp in self.elements:
            row = 0
            for y in parabolic_subgroup(n, self.J):
                u = y * wp * (x * y * x.inverse()).inverse()
                row |= sum(1 << j for j in _bits(full & ~row) if bruhat_leq(u, self.elements[j]))
                if row == full:
                    break
            self.rows.append(row)
        self._verify_axioms()

    def _verify_axioms(self) -> None:
        rows = self.rows
        if not all(row >> i & 1 for i, row in enumerate(rows)):
            raise ConventionError("order is not reflexive")
        for i, row in enumerate(rows):
            for j in _bits(row):
                if i != j and rows[j] >> i & 1:
                    raise ConventionError(f"antisymmetry fails between {self.elements[i]} "
                                          f"and {self.elements[j]}; check the twist convention")
        for row in rows:
            for j in _bits(row):
                if rows[j] & ~row:
                    raise ConventionError("transitivity fails")

    def leq(self, u: Perm, w: Perm) -> bool:
        return bool(self.rows[self.index[u]] >> self.index[w] & 1)

    def hasse_edges(self) -> list:
        """Covering relations: each strict up-set minus its members' strict up-sets."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.rows)]
        edges = []
        for i, up in enumerate(strict):
            covered = 0
            for j in _bits(up):
                covered |= strict[j]
            edges += [(self.elements[i], self.elements[j]) for j in _bits(up & ~covered)]
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
            "relation": [[list(self.elements[i].line), list(self.elements[j].line)]
                         for i, row in enumerate(self.rows) for j in _bits(row) if j != i],
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
