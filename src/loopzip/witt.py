"""Length-N p-typical Witt vectors over F_q and p-inverted Witt fractions.

The structure polynomials are generated once per (p, N) by the exact
integer ghost recursion and cached.  Evaluation happens on the mod-p
reductions, which collapse to a handful of monomials.

A WittFraction stores p^(-e) * w for a WittElt w, together with the
exponent `known` of the modulus it is provably correct to.  Stripping a
detectable p-factor from the numerator rewrites the representative
without ever raising `known`, so canonical forms stay honest.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InsufficientPrecision, NotAUnit, NotIntegral, SpecMismatch
from .gf import FieldSpec, FqElem


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


# -- evaluation context ----------------------------------------------------------


class WittCtx:
    """Shared data for W_N(F_q): structure polynomials and mod-p reductions."""

    def __init__(self, spec: FieldSpec, length: int):
        if not 1 <= length <= 4:
            raise ValueError("length must be 1..4")
        self.spec = spec
        self.p = spec.p
        self.length = length
        self.sum_polys, self.prod_polys = witt_structure_polys(spec.p, length)
        self.neg_polys = witt_neg_polys(spec.p, length)
        self._sum_red = [poly.reduce_mod(spec.p) for poly in self.sum_polys]
        self._prod_red = [poly.reduce_mod(spec.p) for poly in self.prod_polys]
        self._neg_red = [poly.reduce_mod(spec.p) for poly in self.neg_polys]

    _cache: dict = {}

    @staticmethod
    def get(spec: FieldSpec, length: int) -> "WittCtx":
        key = (spec.p, spec.m, length)
        ctx = WittCtx._cache.get(key)
        if ctx is None or ctx.spec is not spec:
            ctx = WittCtx(spec, length)
            WittCtx._cache[key] = ctx
        return ctx

    def _eval_reduced(self, reduced, args) -> FqElem:
        """Evaluate a mod-p-reduced polynomial at a tuple of FqElem codes."""
        spec = self.spec
        mul, add = spec.mul_table, spec.add_table
        one = 1
        acc = 0
        # cache powers of each argument on demand
        pows: dict = {}
        for c, e in reduced:
            term = spec.from_int(c).code
            for i, k in enumerate(e):
                if k:
                    key = (i, k)
                    pk = pows.get(key)
                    if pk is None:
                        pk = one
                        base = args[i]
                        kk = k
                        while kk:
                            if kk & 1:
                                pk = mul[pk][base]
                            base = mul[base][base]
                            kk >>= 1
                        pows[key] = pk
                    term = mul[term][pk]
            acc = add[acc][term]
        return FqElem(spec, acc)

    # element constructors

    def from_coords(self, coords) -> "WittElt":
        coords = tuple(coords)
        if len(coords) != self.length:
            raise ValueError(f"need {self.length} coordinates")
        return WittElt(self, coords)

    def zero(self) -> "WittElt":
        return WittElt(self, (self.spec.zero(),) * self.length)

    def one(self) -> "WittElt":
        return WittElt(
            self, (self.spec.one(),) + (self.spec.zero(),) * (self.length - 1)
        )

    def teichmuller(self, a: FqElem) -> "WittElt":
        return WittElt(self, (a,) + (self.spec.zero(),) * (self.length - 1))

    def from_int(self, n: int) -> "WittElt":
        """Image of the integer n, computed by repeated addition of 1."""
        acc = self.zero()
        one = self.one()
        for _ in range(n % (self.p**self.length)):
            acc = acc + one
        return acc

    def p_elt(self, k: int = 1) -> "WittElt":
        """The element p^k."""
        acc = self.one()
        for _ in range(k):
            acc = acc.times_p()
        return acc


class WittElt:
    """Element of W_N(F_q), stored by its N Witt coordinates."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: WittCtx, coords):
        self.ctx = ctx
        self.coords = tuple(coords)

    def _codes(self):
        return tuple(c.code for c in self.coords)

    def _coerce(self, other: "WittElt") -> None:
        if other.ctx is not self.ctx:
            raise SpecMismatch("mixed Witt contexts")

    def __add__(self, other: "WittElt") -> "WittElt":
        self._coerce(other)
        args = self._codes() + other._codes()
        ctx = self.ctx
        return WittElt(ctx, [ctx._eval_reduced(r, args) for r in ctx._sum_red])

    def __mul__(self, other: "WittElt") -> "WittElt":
        self._coerce(other)
        args = self._codes() + other._codes()
        ctx = self.ctx
        return WittElt(ctx, [ctx._eval_reduced(r, args) for r in ctx._prod_red])

    def __neg__(self) -> "WittElt":
        ctx = self.ctx
        args = self._codes()
        return WittElt(ctx, [ctx._eval_reduced(r, args) for r in ctx._neg_red])

    def __sub__(self, other: "WittElt") -> "WittElt":
        return self + (-other)

    def inverse(self) -> "WittElt":
        """Coordinatewise Hensel solve of self * x = 1; unit iff coords[0] != 0."""
        ctx = self.ctx
        if self.coords[0].is_zero():
            raise NotAUnit("Witt vector with zero first coordinate")
        x = [self.coords[0].inverse()]
        target = ctx.one().coords
        a = self._codes()
        for n in range(1, ctx.length):
            partial = tuple(c.code for c in x) + (0,) * (ctx.length - n)
            c = ctx._eval_reduced(ctx._prod_red[n], a + partial)
            # P_n is linear in the unknown with unit coefficient a_0^(p^n)
            lead = self.coords[0] ** (ctx.p**n)
            x.append((target[n] - c) * lead.inverse())
        return WittElt(ctx, x)

    def frobenius(self, times: int = 1) -> "WittElt":
        return WittElt(self.ctx, [c.frobenius(times) for c in self.coords])

    def times_p(self) -> "WittElt":
        """Multiply by p: shift Frobenius'd coordinates right by one."""
        ctx = self.ctx
        shifted = (ctx.spec.zero(),) + tuple(
            c.frobenius() for c in self.coords[: ctx.length - 1]
        )
        return WittElt(ctx, shifted)

    def unshift_p(self) -> "WittElt":
        """Inverse of times_p on elements with zero first coordinate.

        The top coordinate of the quotient is not determined by self; by
        convention it is set to zero, which changes the value only by a
        multiple of p^(N-1).
        """
        ctx = self.ctx
        if not self.coords[0].is_zero():
            raise NotIntegral("not divisible by p")
        quot = tuple(c.frobenius(-1) for c in self.coords[1:]) + (ctx.spec.zero(),)
        return WittElt(ctx, quot)

    def valuation(self):
        """Index of the first nonzero coordinate, or None if all are zero."""
        for i, c in enumerate(self.coords):
            if not c.is_zero():
                return i
        return None

    def congruent_mod(self, other: "WittElt", j: int) -> bool:
        """Agreement modulo p^j: the first j coordinates coincide."""
        self._coerce(other)
        j = min(j, self.ctx.length)
        return self.coords[:j] == other.coords[:j]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, WittElt)
            and other.ctx is self.ctx
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.ctx),) + self._codes())

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "N": self.ctx.length,
            "coords": [list(c.coeffs) for c in self.coords],
        }

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


class WittFraction:
    """p^(-e) * num for a WittElt num, provably correct modulo p^known."""

    __slots__ = ("ctx", "e", "num", "known")

    def __init__(self, ctx: WittCtx, e: int, num: WittElt, known: int | None = None):
        if e < 0:
            raise ValueError("denominator exponent must be non-negative")
        if e >= ctx.length:
            raise InsufficientPrecision(
                f"denominator p^{e} leaves no precision at length {ctx.length}"
            )
        self.ctx = ctx
        self.e = e
        self.num = num
        cap = ctx.length - e
        self.known = cap if known is None else min(known, cap)
        if self.known <= 0:
            raise InsufficientPrecision("fraction with non-positive known precision")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integral(w: WittElt) -> "WittFraction":
        return WittFraction(w.ctx, 0, w)

    @staticmethod
    def p_power(ctx: WittCtx, d: int) -> "WittFraction":
        """The element p^d, for -length < d < length."""
        if d >= 0:
            if d >= ctx.length:
                raise InsufficientPrecision(f"p^{d} vanishes at length {ctx.length}")
            return WittFraction(ctx, 0, ctx.p_elt(d))
        return WittFraction(ctx, -d, ctx.one())

    @staticmethod
    def zero(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.zero())

    @staticmethod
    def one(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.one())

    # -- structure ---------------------------------------------------------

    def valuation(self):
        """Provable valuation of the value, or None when zero within precision.

        Numerator digits at or beyond the known window are representative
        junk, so a leading coordinate there proves nothing.
        """
        j = self.num.valuation()
        if j is None or j - self.e >= self.known:
            return None
        return j - self.e

    def stripped(self) -> "WittFraction":
        """Canonical representative: remove detectable p-factors from num.

        `known` never increases, so the congruence class the fraction
        promises is preserved.
        """
        e, num = self.e, self.num
        while e > 0 and num.coords[0].is_zero():
            e -= 1
            num = num.unshift_p()
        if e == self.e:
            return self
        return WittFraction(self.ctx, e, num, self.known)

    def is_integral(self) -> bool:
        """No denominator left once detectable p-factors are stripped."""
        return self.stripped().e == 0

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "WittFraction") -> None:
        if other.ctx is not self.ctx:
            raise SpecMismatch("mixed Witt contexts")

    def __add__(self, other: "WittFraction") -> "WittFraction":
        self._coerce(other)
        e = max(self.e, other.e)
        a, b = self.num, other.num
        for _ in range(e - self.e):
            a = a.times_p()
        for _ in range(e - other.e):
            b = b.times_p()
        known = min(self.known, other.known)
        return WittFraction(self.ctx, e, a + b, known).stripped()

    def __neg__(self) -> "WittFraction":
        return WittFraction(self.ctx, self.e, -self.num, self.known)

    def __sub__(self, other: "WittFraction") -> "WittFraction":
        return self + (-other)

    def __mul__(self, other: "WittFraction") -> "WittFraction":
        self._coerce(other)
        v1 = self.valuation()
        v2 = other.valuation()
        v1b = v1 if v1 is not None else self.known
        v2b = v2 if v2 is not None else other.known
        known = min(self.known + v2b, other.known + v1b)
        if known <= 0:
            raise InsufficientPrecision("product has no provable digits")
        e = self.e + other.e
        num = self.num * other.num
        # the raw exponent may exceed the length cap; p-factors contributed
        # by positive-valuation operands can be stripped to repair it
        while e > 0 and num.coords[0].is_zero():
            num = num.unshift_p()
            e -= 1
        if e >= self.ctx.length:
            raise InsufficientPrecision("denominator exceeds Witt length")
        return WittFraction(self.ctx, e, num, known)

    def shifted(self, k: int) -> "WittFraction":
        """Multiply by p^k exactly (exponent bookkeeping only)."""
        if k == 0:
            return self
        e = self.e - k
        num = self.num
        known = self.known + k
        while e < 0:
            num = num.times_p()
            e += 1
        return WittFraction(self.ctx, e, num, known)

    def inverse(self) -> "WittFraction":
        """Invert; requires a unit numerator after p-factor stripping."""
        s = self.stripped()
        val = s.valuation()
        if val is None:
            raise NotAUnit("not provably a unit within precision")
        if val <= 0:
            # value = p^(-e) * unit: the inverse is integral
            inv = s.num.inverse()
            for _ in range(s.e):
                inv = inv.times_p()
            return WittFraction(self.ctx, 0, inv, s.known + 2 * s.e)
        # after stripping, e > 0 forces a unit leading coordinate, so here
        # e = 0 and the value is p^val * unit
        unit = s.num
        for _ in range(val):
            unit = unit.unshift_p()
        known = s.known - 2 * val
        if known <= 0:
            raise InsufficientPrecision("inverse has no provable digits")
        return WittFraction(self.ctx, val, unit.inverse(), known)

    # -- projections ------------------------------------------------------------

    def reduce_mod_p(self) -> FqElem:
        """First Witt coordinate of an integral value."""
        if self.known < 1:
            raise InsufficientPrecision("no provable digits")
        s = self.stripped()
        if s.e > 0:
            raise NotIntegral(f"denominator p^{s.e} remains")
        return s.num.coords[0]

    # -- comparisons ----------------------------------------------------------------

    def congruent_mod(self, other: "WittFraction", j: int) -> bool:
        """Values agree modulo p^j (requires j within both known windows)."""
        self._coerce(other)
        if j > self.known or j > other.known:
            raise InsufficientPrecision(f"cannot compare mod p^{j}")
        e = max(self.e, other.e)
        a, b = self.num, other.num
        for _ in range(e - self.e):
            a = a.times_p()
        for _ in range(e - other.e):
            b = b.times_p()
        return a.congruent_mod(b, min(j + e, self.ctx.length))

    def __eq__(self, other):
        """Congruence at the shared provable precision."""
        if not isinstance(other, WittFraction) or other.ctx is not self.ctx:
            return NotImplemented
        return self.congruent_mod(other, min(self.known, other.known))

    def __hash__(self):
        raise TypeError("WittFraction compares by congruence; not hashable")

    def to_json(self) -> dict:
        s = self.stripped()
        return {
            "p": self.ctx.p,
            "N": self.ctx.length,
            "coords": [list(c.coeffs) for c in s.num.coords],
            "e": s.e,
        }

    def __repr__(self):
        if self.e == 0:
            return f"{self.num!r} + O(p^{self.known})"
        return f"p^-{self.e}*{self.num!r} + O(p^{self.known})"


# -- integer correspondence for W_N(F_p) ---------------------------------------


def teichmuller_int(a: int, p: int, length: int) -> int:
    """Teichmuller representative of a mod p^length: iterate x -> x^p to a fixpoint."""
    mod = p**length
    x = a % mod
    for _ in range(length * 4):
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return x

def int_to_coords(n: int, p: int, length: int) -> tuple:
    """Witt coordinates of n in W_N(F_p) via the Teichmuller expansion."""
    coords = []
    rem = n % (p**length)
    for i in range(length):
        a = rem % p
        coords.append(a)
        rem = (rem - teichmuller_int(a, p, length - i)) // p
    return tuple(coords)


def ghost_selftest(p: int, length: int, samples: int, seed: int = 0) -> dict:
    """Compare Witt arithmetic on W_N(F_p) against plain integers mod p^N."""
    import random

    spec = FieldSpec.get(p, 1)
    ctx = WittCtx.get(spec, length)
    rng = random.Random(seed)
    mod = p**length
    passed = 0
    for _ in range(samples):
        x, y = rng.randrange(mod), rng.randrange(mod)
        wx = ctx.from_coords([spec.element(c) for c in int_to_coords(x, p, length)])
        wy = ctx.from_coords([spec.element(c) for c in int_to_coords(y, p, length)])
        ok_sum = tuple(c.code for c in (wx + wy).coords) == int_to_coords(
            (x + y) % mod, p, length
        )
        ok_prod = tuple(c.code for c in (wx * wy).coords) == int_to_coords(
            (x * y) % mod, p, length
        )
        passed += ok_sum and ok_prod
    return {"p": p, "N": length, "samples": samples, "passed_samples": passed}
