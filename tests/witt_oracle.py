"""Reference Witt arithmetic through the mod-p Witt structure polynomials.

The sum, product and negation polynomials are solved from the integer
ghost recursion, reduced mod p and evaluated coordinatewise on F_q
codes.  Every division by p^n in the recursion is exact, so the
polynomials are correct by construction; the tests compare the
Galois-ring arithmetic of `loopzip.witt` against this model.

Over F_p the Witt ring is Z/p^N, so a fraction p^(-e) num known modulo
p^known stands for every rational num / p^e + p^known t with t a p-adic
integer.  `window_overclaims` draws such true values, applies each fraction
operation to them exactly, and counts the results whose window claims a
digit the true value does not have.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from loopzip.errors import InsufficientPrecision, LoopZipError
from loopzip.gf import FieldSpec
from loopzip.witt import WittCtx, WittFraction

# -- exact multivariate integer polynomials ------------------------------------


class IntPoly:
    """Immutable integer polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def var(nvars: int, i: int) -> "IntPoly":
        e = [0] * nvars
        e[i] = 1
        return IntPoly(nvars, {tuple(e): 1})

    @staticmethod
    def const(nvars: int, c: int) -> "IntPoly":
        return IntPoly(nvars, {(0,) * nvars: c})

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPoly(self.nvars, out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return IntPoly(self.nvars, out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly(self.nvars, out)

    def scaled(self, k: int) -> "IntPoly":
        return IntPoly(self.nvars, {e: k * c for e, c in self.terms.items()})

    def power(self, n: int) -> "IntPoly":
        acc = IntPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def exact_div(self, k: int) -> "IntPoly":
        out = {}
        for e, c in self.terms.items():
            if c % k:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            out[e] = c // k
        return IntPoly(self.nvars, out)

    def reduce_mod(self, p: int) -> list:
        """Nonzero monomials mod p as (coeff, exponent tuple) pairs, sorted."""
        out = []
        for e, c in self.terms.items():
            cp = c % p
            if cp:
                out.append((cp, e))
        out.sort(key=lambda t: t[1])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, IntPoly)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        def mono(e):
            parts = []
            for i, k in enumerate(e):
                if k:
                    name = f"X{i}" if i < self.nvars // 2 else f"Y{i - self.nvars // 2}"
                    parts.append(name if k == 1 else f"{name}^{k}")
            return "*".join(parts) or "1"

        items = sorted(self.terms.items(), key=lambda t: t[0])
        return " + ".join(f"{c}*{mono(e)}" for e, c in items) or "0"


def ghost_poly(p: int, n: int, nvars: int, offset: int) -> IntPoly:
    """n-th ghost polynomial sum_{i<=n} p^i Z_i^(p^(n-i)) in slots offset+i."""
    acc = IntPoly(nvars, {})
    for i in range(n + 1):
        acc = acc + IntPoly.var(nvars, offset + i).power(p ** (n - i)).scaled(p**i)
    return acc


@lru_cache(maxsize=None)
def witt_structure_polys(p: int, length: int):
    """Sum and product structure polynomials S_0..S_{N-1}, P_0..P_{N-1}.

    2N variables: X_0..X_{N-1} then Y_0..Y_{N-1}.  Each polynomial is
    solved from the ghost identity; every division by p^n is exact.
    """
    if length > 4:
        raise ValueError("Witt length capped at 4")
    if p > 3 and length > 2:
        # the exact expansion of S_2^p is already enormous for p = 5
        raise ValueError(f"p={p} supported only to length 2")
    nv = 2 * length
    sums, prods = [], []
    for n in range(length):
        gx = ghost_poly(p, n, nv, 0)
        gy = ghost_poly(p, n, nv, length)
        target_s = gx + gy
        target_p = gx * gy
        for i in range(n):
            target_s = target_s - sums[i].power(p ** (n - i)).scaled(p**i)
            target_p = target_p - prods[i].power(p ** (n - i)).scaled(p**i)
        sums.append(target_s.exact_div(p**n))
        prods.append(target_p.exact_div(p**n))
    return tuple(sums), tuple(prods)


@lru_cache(maxsize=None)
def witt_neg_polys(p: int, length: int):
    """Negation polynomials in N variables: ghost(I(X)) = -ghost(X)."""
    negs = []
    for n in range(length):
        target = -ghost_poly(p, n, length, 0)
        for i in range(n):
            target = target - negs[i].power(p ** (n - i)).scaled(p**i)
        negs.append(target.exact_div(p**n))
    return tuple(negs)


# -- coordinatewise evaluation ----------------------------------------------------


class PolyWitt:
    """W_N(F_q) on tuples of N coordinate codes, by structure polynomials."""

    def __init__(self, spec, length: int):
        self.spec = spec
        self.p = spec.p
        self.length = length
        sums, prods = witt_structure_polys(spec.p, length)
        self._sum_red = [poly.reduce_mod(spec.p) for poly in sums]
        self._prod_red = [poly.reduce_mod(spec.p) for poly in prods]
        self._neg_red = [
            poly.reduce_mod(spec.p) for poly in witt_neg_polys(spec.p, length)
        ]

    def _eval_reduced(self, reduced, args) -> int:
        """Evaluate a mod-p-reduced polynomial at a tuple of F_q codes."""
        spec = self.spec
        mul, add = spec.mul_table, spec.add_table
        acc = 0
        pows: dict = {}
        for c, e in reduced:
            term = c % spec.p  # the image of the integer c
            for i, k in enumerate(e):
                if k:
                    pk = pows.get((i, k))
                    if pk is None:
                        pk = pows[(i, k)] = _pow_code(spec, args[i], k)
                    term = mul[term][pk]
            acc = add[acc][term]
        return acc

    def add(self, a, b) -> tuple:
        return tuple(self._eval_reduced(r, a + b) for r in self._sum_red)

    def mul(self, a, b) -> tuple:
        return tuple(self._eval_reduced(r, a + b) for r in self._prod_red)

    def neg(self, a) -> tuple:
        return tuple(self._eval_reduced(r, a) for r in self._neg_red)

    def one(self) -> tuple:
        return (1,) + (0,) * (self.length - 1)

    def inverse(self, a) -> tuple:
        """Coordinatewise Hensel solve of a * x = 1; needs a[0] != 0."""
        spec = self.spec
        x = [spec.inv_table[a[0]]]
        for n in range(1, self.length):
            partial = tuple(x) + (0,) * (self.length - n)
            c = self._eval_reduced(self._prod_red[n], a + partial)
            # P_n is linear in the unknown with unit coefficient a_0^(p^n)
            lead = _pow_code(spec, a[0], self.p**n)
            x.append(spec.mul_table[spec.neg_table[c]][spec.inv_table[lead]])
        return tuple(x)

    def times_p(self, a) -> tuple:
        """p = V F: shift the Frobenius'd coordinates right by one."""
        return (0,) + tuple(_frob_code(self.spec, c, 1) for c in a[:-1])

    def unshift_p(self, a) -> tuple:
        """Inverse of times_p with the undetermined top coordinate set to 0."""
        assert a[0] == 0
        return tuple(_frob_code(self.spec, c, -1) for c in a[1:]) + (0,)

    def from_int(self, n: int) -> tuple:
        acc = (0,) * self.length
        for _ in range(n % self.p**self.length):
            acc = self.add(acc, self.one())
        return acc

    def p_elt(self, k: int) -> tuple:
        acc = self.one()
        for _ in range(k):
            acc = self.times_p(acc)
        return acc


def p_power(ctx, d: int):
    """The WittFraction p^d of the context `ctx`, for -length < d < length."""
    if d >= 0:
        if d >= ctx.length:
            raise InsufficientPrecision(f"p^{d} vanishes at length {ctx.length}")
        return WittFraction(ctx, 0, ctx.from_int(ctx.p**d))
    return WittFraction(ctx, -d, ctx.from_int(1))


def _pow_code(spec, a: int, k: int) -> int:
    acc = 1
    while k:
        if k & 1:
            acc = spec.mul_table[acc][a]
        a = spec.mul_table[a][a]
        k >>= 1
    return acc


def _frob_code(spec, c: int, times: int) -> int:
    table = spec.frob_table if times >= 0 else spec.frob_inv_table
    for _ in range(abs(times)):
        c = table[c]
    return c


# -- exact windows over W_N(F_p) = Z/p^N -------------------------------------------


def frac_value(x: WittFraction) -> Fraction:
    """The rational num / p^e that a fraction over F_p stores."""
    return Fraction(x.num[0], x.ctx.p ** x.e)


def _valuation(q: Fraction, p: int):
    """p-adic valuation of a nonzero rational; None for 0."""
    if not q:
        return None
    v, a, b = 0, q.numerator, q.denominator
    while a % p == 0:
        a, v = a // p, v + 1
    while b % p == 0:
        b, v = b // p, v - 1
    return v


def honest(x: WittFraction, true: Fraction) -> bool:
    """Whether x agrees with the exact value `true` modulo p^x.known."""
    v = _valuation(frac_value(x) - true, x.ctx.p)
    return v is None or v >= x.known


def random_fraction(ctx: WittCtx, rng) -> WittFraction:
    """p^(-e) num with a random exponent, window and number of p-factors in
    num, so that unstripped operands are common."""
    e = rng.randrange(ctx.length)
    num = rng.randrange(ctx.mod) * ctx.p ** rng.randrange(ctx.length) % ctx.mod
    return WittFraction(ctx, e, (num,), rng.randrange(1, ctx.length - e + 1))


def window_overclaims(p: int, length: int, samples: int, seed: int) -> tuple:
    """(results checked, results whose window overclaims) for +, -, *, inverse
    and shifted on random fractions of W_length(F_p), each operand standing
    for a random true value in its window."""
    ctx = WittCtx.get(FieldSpec.get(p, 1), length)
    rng = random.Random(seed)
    checked = bad = 0
    for _ in range(samples):
        x, y = random_fraction(ctx, rng), random_fraction(ctx, rng)
        tx = frac_value(x) + p**x.known * rng.randrange(ctx.mod)
        ty = frac_value(y) + p**y.known * rng.randrange(ctx.mod)
        k = rng.randrange(-length, length + 1)
        ops = [(lambda: x + y, lambda: tx + ty), (lambda: x - y, lambda: tx - ty),
               (lambda: x * y, lambda: tx * ty), (lambda: x.inverse(), lambda: 1 / tx),
               (lambda: x.shifted(k), lambda: tx * Fraction(p) ** k)]
        for op, exact in ops:
            try:
                out = op()
            except LoopZipError:
                continue
            checked += 1
            bad += not honest(out, exact())
    return checked, bad
