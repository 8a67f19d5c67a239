"""Exact arithmetic in small finite fields F_{p^m} with the p-power Frobenius.

Elements are stored as integer codes 0..q-1, the little-endian base-p
encoding of their coefficient vector in the basis 1, w, w^2 of
F_p[w]/(modulus).  The code order doubles as the fixed total order used
by every canonical form downstream.
"""

from __future__ import annotations

from functools import lru_cache

# Monic irreducible modulus for each supported (p, m), little-endian
# coefficients including the leading 1.  The table is fixed so that
# the codes in reports are portable: one modulus per (p, m), forever.
_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),  # w^2 + w + 1
    (2, 3): (1, 1, 0, 1),  # w^3 + w + 1
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),  # w^2 + 1
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),  # w^2 + 2
}
# the field sizes and the primes of the table, ascending
SIZES = tuple(sorted(p**m for p, m in _MODULI))
PRIMES = tuple(sorted(p for p, m in _MODULI if m == 1))


def poly_mul_reduce(a, b, modulus, n: int) -> list[int]:
    """a * b modulo the monic `modulus` and the integer n.

    a and b are little-endian coefficient lists of degree below that of
    the modulus; the result has the same length, entries in [0, n).
    """
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # reduce degrees >= m using the monic modulus
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for i in range(m):
                prod[k - m + i] -= c * modulus[i]
    return [c % n for c in prod[:m]]


class FieldSpec:
    """A fixed model of F_{p^m}, q = p^m <= 25, with precomputed op tables."""

    def __init__(self, p: int, m: int):
        if (p, m) not in _MODULI:
            raise ValueError(f"unsupported field F_{{{p}^{m}}}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = _MODULI[(p, m)]
        self._build_tables()

    @staticmethod
    @lru_cache(maxsize=None)
    def get(p: int, m: int) -> "FieldSpec":
        return FieldSpec(p, m)

    @staticmethod
    def for_q(q: int) -> "FieldSpec":
        for (p, m) in _MODULI:
            if p**m == q:
                return FieldSpec.get(p, m)
        raise ValueError(f"no supported field of size {q}")

    # -- table construction ------------------------------------------------

    def _code_to_vec(self, code: int) -> list[int]:
        vec = []
        for _ in range(self.m):
            vec.append(code % self.p)
            code //= self.p
        return vec

    def _vec_to_code(self, vec) -> int:
        code = 0
        for c in reversed(vec):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self) -> None:
        q = self.q
        vecs = [self._code_to_vec(c) for c in range(q)]
        self.add_table = [
            [
                self._vec_to_code([(x + y) % self.p for x, y in zip(vecs[a], vecs[b])])
                for b in range(q)
            ]
            for a in range(q)
        ]
        self.mul_table = [
            [self._vec_to_code(poly_mul_reduce(vecs[a], vecs[b], self.modulus, self.p))
             for b in range(q)]
            for a in range(q)
        ]
        self.neg_table = [
            self._vec_to_code([(-x) % self.p for x in vecs[a]]) for a in range(q)
        ]
        # inverse by exhaustive search (q <= 25); a reducible modulus leaves a
        # zero divisor without one, so this also certifies the modulus
        self.inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
                    break
            else:
                raise AssertionError(f"no inverse for code {a}; modulus not irreducible?")
        frob = [self._pow_code(a, self.p) for a in range(q)]
        self.frob_powers = [list(range(q))]  # sigma^0 .. sigma^(m-1); sigma has order m
        for _ in range(1, self.m):
            self.frob_powers.append([frob[c] for c in self.frob_powers[-1]])

    def frob_code(self, code: int, k: int = 1) -> int:
        """Code of sigma^k(code), sigma the p-power Frobenius; any integer k."""
        return self.frob_powers[k % self.m][code]

    def primitive_code(self) -> int:
        """The least code of multiplicative order q - 1, a generator of F_q^*.

        Found by search: w itself need not be one (in F_9 and F_25 it is not)."""
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x, order = self.mul_table[x][a], order + 1
            if order == self.q - 1:
                return a
        return 1  # F_2^* is trivial

    def _pow_code(self, a: int, e: int) -> int:
        acc = 1
        for _ in range(e):
            acc = self.mul_table[acc][a]
        return acc

    # -- codes at the edges ------------------------------------------------

    def checked_codes(self, codes) -> tuple:
        """The codes as a tuple, each an int in 0..q-1, else ValueError."""
        codes = tuple(codes)
        for c in codes:
            if type(c) is not int or not 0 <= c < self.q:
                raise ValueError(f"coefficient code {c!r} is not an int in 0..{self.q - 1}")
        return codes

    def code_repr(self, code: int) -> str:
        """The element as text: its code over F_p, else a sum of powers of w."""
        if self.m == 1:
            return str(code)
        names = ("1", "w", "w^2")
        terms = [
            (names[i] if c == 1 else f"{c}*{names[i]}") if i else str(c)
            for i, c in enumerate(self._code_to_vec(code))
            if c
        ]
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m})"

