"""Reference Witt arithmetic through the mod-p Witt structure polynomials.

The sum, product and negation polynomials are solved from the integer
ghost recursion, reduced mod p and evaluated coordinatewise on F_q
codes.  Every division by p^n in the recursion is exact, so the
polynomials are correct by construction; the tests compare the
Galois-ring arithmetic of `loopzip.witt` against this model.

The per-element loops that `WittCtx` once ran on every call (valuation by
trial division, Teichmuller digits by peeling, unit inverses by Newton
lifting) are kept here as the oracles of its lookup tables.

Over F_p the Witt ring is Z/p^N, so a fraction p^(-e) num known modulo
p^known stands for every rational num / p^e + p^known t with t a p-adic
integer.  `window_overclaims` draws such true values, applies each fraction
operation to them exactly, and counts the results whose window claims a
digit the true value does not have.  `factorization_overclaims` does the
same for a decomposition x = a diag(p^d) b over any W_N(F_q), with values in
Q[w]/(f).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count, product

from loopzip.errors import BudgetExceeded, InsufficientPrecision, LoopZipError, NotAUnit
from loopzip.gf import FieldSpec, poly_mul_reduce
from loopzip.matring import Mat
from loopzip.witt import WittCtx, WittFraction
from laurent_oracle import difference

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


# -- the per-element ring functions behind the WittCtx tables ------------------------


def valuation(ctx: WittCtx, v: tuple):
    """p-adic valuation of a ring tuple by trial division, or None for 0."""
    if not any(v):
        return None
    p = ctx.p
    j, pj = 0, p
    while not any(x % pj for x in v):
        j, pj = j + 1, pj * p
    return j


def digits(ctx: WittCtx, v: tuple) -> tuple:
    """Teichmuller digits by peeling: the codes b_i with v = sum_i p^i [b_i]."""
    p, mod = ctx.p, ctx.mod
    out = []
    for _ in range(ctx.length):
        b = ctx.spec._vec_to_code(v)
        out.append(b)
        v = tuple((x - t) % mod // p for x, t in zip(v, ctx._teich[b]))
    return tuple(out)


def unit_inverse(ctx: WittCtx, v: tuple) -> tuple:
    """Newton lift x -> 2x - v x^2 of the residue inverse."""
    if valuation(ctx, v) != 0:
        raise NotAUnit("Witt vector with zero first coordinate")
    spec = ctx.spec

    def mul(a, b):
        return tuple(poly_mul_reduce(a, b, spec.modulus, ctx.mod))

    x = tuple(spec._code_to_vec(spec.inv_table[spec._vec_to_code(v)]))
    prec = 1
    while prec < ctx.length:
        vxx = mul(mul(v, x), x)
        x = tuple((2 * y - z) % ctx.mod for y, z in zip(x, vxx))
        prec *= 2
    return x


def table_mismatches(ctx: WittCtx) -> tuple:
    """(elements, mismatches): `valuation`, `unshift`'s digits, `coords` and
    `unit_inverse` of ctx against the loops above, on every ring element."""
    bad = 0
    elements = list(product(range(ctx.mod), repeat=ctx.spec.m))
    for v in elements:
        b = digits(ctx, v)
        coords = tuple(ctx.spec.frob_code(c, i) for i, c in enumerate(b))
        try:
            inv = unit_inverse(ctx, v)
        except NotAUnit:
            inv = None
        try:
            got_inv = ctx.unit_inverse(v)
        except NotAUnit:
            got_inv = None
        bad += (ctx.valuation(v) != valuation(ctx, v) or ctx._digits[v] != b
                or ctx._element[b] != v or ctx.coords(v) != coords or got_inv != inv)
    bad += len(ctx._digits) != len(elements)
    return len(elements), bad


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


def _frob_code(spec, c: int, k: int) -> int:
    """sigma^k(c) as the p^(k mod m)-th power, apart from the field's tables."""
    return _pow_code(spec, c, spec.p ** (k % spec.m))


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
        ops = [(lambda: x + y, lambda: tx + ty), (lambda: difference(x, y), lambda: tx - ty),
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


# -- exact check of a decomposition x = a diag(p^d) b ---------------------------------


def exact_value(x: WittFraction) -> tuple:
    """The element num / p^e of Q[w]/(f) that x stores, as its coefficients."""
    return tuple(Fraction(c, x.ctx.p ** x.e) for c in x.num)


def _exact_mul(a, b, modulus) -> list:
    """a * b in Q[w]/(f), f the monic integer lift of the F_q modulus."""
    m = len(modulus) - 1
    prod = [Fraction(0)] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        for i in range(m):
            prod[k - m + i] -= prod[k] * modulus[i]
    return prod[:m]


def factorization_overclaims(x: Mat, a: Mat, d, b: Mat) -> list:
    """Cells (i, j) where a diag(p^d) b, computed exactly from the stored
    representatives, differs from x_ij modulo p^k, k the lesser of the window
    of x_ij and the window the fraction arithmetic gives that product entry.

    The basis 1, w, ..., w^(m-1) is integral with independent reductions,
    so an element's valuation is the least valuation of its coefficients.
    """
    ctx = x.rows[0][0].ctx
    n, p = x.n, ctx.p
    zero = WittFraction.zero(ctx)
    diag = Mat([[p_power(ctx, d[i]) if i == j else zero for j in range(n)] for i in range(n)])
    claimed = a * diag * b
    bad = []
    for i in range(n):
        for j in range(n):
            diff = list(exact_value(x.rows[i][j]))
            for k in range(n):
                term = _exact_mul(exact_value(a.rows[i][k]), exact_value(b.rows[k][j]),
                                  ctx.spec.modulus)
                diff = [s - Fraction(p) ** d[k] * t for s, t in zip(diff, term)]
            vals = [v for v in (_valuation(c, p) for c in diff) if v is not None]
            window = min(x.rows[i][j].known, claimed.rows[i][j].known)
            if vals and min(vals) < window:
                bad.append((i, j))
    return bad


def witt_mat(ctx: WittCtx, cells) -> Mat:
    """The matrix of cells (e, coordinate codes) over ctx, each p^(-e) times
    the Witt vector with those coordinates and stored as given: a numerator
    divisible by p under a denominator stays unstripped."""
    return Mat([[WittFraction(ctx, e, ctx.from_coord_codes(codes)) for e, codes in row]
                for row in cells])


def random_pole_matrix(rng) -> Mat:
    """An n x n matrix over W_N(F_q), q in {2, 3, 4, 9}, N in 2..4 and n in
    {2, 3}, with at least one p^(-1) cell; each numerator is a random element
    times p^k, k in {0, 1, N}, so many poles are stored unstripped and about
    one cell in five is 0."""
    ctx = WittCtx.get(FieldSpec.for_q(rng.choice((2, 3, 4, 9))), rng.randrange(2, 5))
    n = rng.choice((2, 3))
    poles = [rng.random() < 0.3 for _ in range(n * n)]
    poles[rng.randrange(n * n)] = True
    cells = [WittFraction(ctx, int(pole), ctx.times_p(
                 tuple(rng.randrange(ctx.mod) for _ in range(ctx.spec.m)),
                 rng.choice((0, 0, 1, 1, ctx.length))))
             for pole in poles]
    return Mat([cells[i * n:(i + 1) * n] for i in range(n)])


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/witt_oracle.py: the full comparisons;
    # exits 1 while any count below is nonzero
    total = 0
    elements = bad = 0
    for q in (2, 3, 4, 5, 8, 9, 25):
        for length in count(1):  # every context the table cap admits
            try:
                ctx = WittCtx.get(FieldSpec.for_q(q), length)
            except BudgetExceeded:
                break
            size, wrong = table_mismatches(ctx)
            elements, bad = elements + size, bad + wrong
        print(f"ring tables over F_{q}: lengths 1..{length - 1}")
    print(f"ring tables: {elements} elements, {bad} mismatches")
    total += bad
    checked = bad = 0
    for p in (2, 3):
        for length in (2, 3, 4):
            results, wrong = window_overclaims(p, length, 5000, seed=100 + length)
            checked, bad = checked + results, bad + wrong
    print(f"window_overclaims: {checked} results, {bad} overclaims")
    total += bad
    sys.exit(1 if total else 0)
