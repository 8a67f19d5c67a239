"""Length-N p-typical Witt vectors over F_q and p-inverted Witt fractions.

W_N(F_q) is computed as the Galois ring GR(p^N, m) = (Z/p^N)[w]/(f), with
f the F_q modulus read as a monic integer polynomial (Serre, Local
Fields, II.5-6).  An element is stored as its m coefficients mod p^N, so
ring operations are integer arithmetic.  The Witt vector (a_0, ..., a_{N-1})
is sum_i p^i [a_i^(1/p^i)], [b] being the Teichmuller lift; coordinates
appear only at the edges, read back by peeling Teichmuller digits.

A WittFraction stores p^(-e) * w for a WittElt w, together with the
exponent `known` of the modulus it is provably correct to.  Stripping a
detectable p-factor from the numerator rewrites the representative
without ever raising `known`, so canonical forms stay honest.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InsufficientPrecision, NotAUnit, NotIntegral, SpecMismatch
from .gf import FieldSpec, poly_mul_reduce


class WittCtx:
    """W_N(F_q) as GR(p^N, m); elements are tuples of m ints in [0, p^N)."""

    def __init__(self, spec: FieldSpec, length: int):
        if not 1 <= length <= 4:
            raise ValueError("length must be 1..4")
        if spec.p > 3 and length > 2:
            raise ValueError(f"p={spec.p} supported only to length 2")
        self.spec = spec
        self.p = spec.p
        self.length = length
        self.mod = spec.p**length
        self._teich = tuple(self._teichmuller_lift(a) for a in range(spec.q))

    @staticmethod
    @lru_cache(maxsize=None)
    def get(spec: FieldSpec, length: int) -> "WittCtx":
        """Cached with the field object in the key, so a dead field's id is never reused."""
        return WittCtx(spec, length)

    # -- Galois-ring arithmetic on coefficient tuples ---------------------------

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(poly_mul_reduce(a, b, self.spec.modulus, self.mod))

    def _teichmuller_lift(self, code: int) -> tuple:
        """[a] = x^(q^(N-1)) for the lift x of a with coefficients in [0, p)."""
        acc = (1,) + (0,) * (self.spec.m - 1)
        base = tuple(self.spec._code_to_vec(code))
        e = self.spec.q ** (self.length - 1)
        while e:
            if e & 1:
                acc = self._mul(acc, base)
            base = self._mul(base, base)
            e >>= 1
        return acc

    def _digits(self, v: tuple) -> list:
        """Teichmuller digits: the codes b_i with v = sum_i p^i [b_i]."""
        p, mod = self.p, self.mod
        out = []
        for _ in range(self.length):
            b = self.spec._vec_to_code(v)
            out.append(b)
            v = tuple((x - t) % mod // p for x, t in zip(v, self._teich[b]))
        return out

    def _from_digits(self, digits) -> tuple:
        acc = [0] * self.spec.m
        for i, b in enumerate(digits):
            for k, t in enumerate(self._teich[b]):
                acc[k] += self.p**i * t
        return tuple(c % self.mod for c in acc)

    # element constructors

    def teichmuller_sum(self, terms) -> "WittElt":
        """sum of p^s [c] over the (s, c) in terms, s >= 0 and c a field code."""
        p, mod = self.p, self.mod
        acc = [0] * self.spec.m
        for s, c in terms:
            ps = p**s
            acc = [(x + ps * t) % mod for x, t in zip(acc, self._teich[c])]
        return WittElt(self, tuple(acc))

    def from_coord_codes(self, codes) -> "WittElt":
        """The Witt vector whose coordinates have the given field codes."""
        codes = self.spec.checked_codes(codes)
        if len(codes) != self.length:
            raise ValueError(f"need {self.length} coordinates")
        return WittElt(self, self._from_digits(
            [self.spec.frob_code(c, -i) for i, c in enumerate(codes)]
        ))

    def zero(self) -> "WittElt":
        return self.from_int(0)

    def one(self) -> "WittElt":
        return self.from_int(1)

    def from_int(self, n: int) -> "WittElt":
        """Image of the integer n: n mod p^N in the constant coefficient."""
        return WittElt(self, (n % self.mod,) + (0,) * (self.spec.m - 1))


class WittElt:
    """Element of W_N(F_q), stored by its Galois-ring coefficient tuple v."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: WittCtx, v: tuple):
        self.ctx = ctx
        self.v = v

    def _coerce(self, other: "WittElt") -> None:
        if other.ctx is not self.ctx:
            raise SpecMismatch("mixed Witt contexts")

    def __add__(self, other: "WittElt") -> "WittElt":
        self._coerce(other)
        mod = self.ctx.mod
        return WittElt(self.ctx, tuple((x + y) % mod for x, y in zip(self.v, other.v)))

    def __mul__(self, other: "WittElt") -> "WittElt":
        self._coerce(other)
        return WittElt(self.ctx, self.ctx._mul(self.v, other.v))

    def __neg__(self) -> "WittElt":
        mod = self.ctx.mod
        return WittElt(self.ctx, tuple(-x % mod for x in self.v))

    def __sub__(self, other: "WittElt") -> "WittElt":
        return self + (-other)

    def is_unit(self) -> bool:
        """Units are the elements with nonzero first coordinate (residue)."""
        p = self.ctx.p
        return any(x % p for x in self.v)

    def inverse(self) -> "WittElt":
        """Newton lift x -> 2x - a x^2 of the residue inverse."""
        if not self.is_unit():
            raise NotAUnit("Witt vector with zero first coordinate")
        ctx = self.ctx
        spec = ctx.spec
        x = tuple(spec._code_to_vec(spec.inv_table[spec._vec_to_code(self.v)]))
        prec = 1
        while prec < ctx.length:
            axx = ctx._mul(ctx._mul(self.v, x), x)
            x = tuple((2 * y - z) % ctx.mod for y, z in zip(x, axx))
            prec *= 2
        return WittElt(ctx, x)

    def times_p(self) -> "WittElt":
        ctx = self.ctx
        return WittElt(ctx, tuple(ctx.p * x % ctx.mod for x in self.v))

    def unshift_p(self) -> "WittElt":
        """Inverse of times_p on elements with zero first coordinate.

        The top coordinate of the quotient is not determined by self; by
        convention it is set to zero, which changes the value only by a
        multiple of p^(N-1).
        """
        if self.is_unit():
            raise NotIntegral("not divisible by p")
        ctx = self.ctx
        digits = ctx._digits(self.v)
        return WittElt(ctx, ctx._from_digits(digits[1:] + [0]))

    def valuation(self):
        """p-adic valuation (index of the first nonzero coordinate), or None."""
        if not any(self.v):
            return None
        p = self.ctx.p
        j, pj = 0, p
        while not any(x % pj for x in self.v):
            j, pj = j + 1, pj * p
        return j

    def congruent_mod(self, other: "WittElt", j: int) -> bool:
        """Agreement modulo p^j: the first j coordinates coincide."""
        self._coerce(other)
        pj = self.ctx.p ** min(j, self.ctx.length)
        return not any((x - y) % pj for x, y in zip(self.v, other.v))

    @property
    def coords(self) -> tuple:
        """Codes of the Witt coordinates a_i = b_i^(p^i), b_i the Teichmuller digits."""
        spec = self.ctx.spec
        return tuple(spec.frob_code(b, i) for i, b in enumerate(self.ctx._digits(self.v)))

    def __eq__(self, other):
        return (
            isinstance(other, WittElt)
            and other.ctx is self.ctx
            and other.v == self.v
        )

    def __hash__(self):
        return hash((id(self.ctx),) + self.v)

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "N": self.ctx.length,
            "coords": [self.ctx.spec._code_to_vec(c) for c in self.coords],
        }

    def __repr__(self):
        return "(" + ", ".join(self.ctx.spec.code_repr(c) for c in self.coords) + ")"


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
    def zero(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.zero())

    @staticmethod
    def one(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.one())

    # a Witt constant is exact to the full length, whatever window is asked
    def zero_at(self, prec: int) -> "WittFraction":
        return WittFraction.zero(self.ctx)

    def one_at(self, prec: int) -> "WittFraction":
        return WittFraction.one(self.ctx)

    def from_codes(self, codes) -> "WittFraction":
        """The integral element with Witt coordinates `codes`, exact like the constants."""
        return WittFraction(self.ctx, 0, self.ctx.from_coord_codes(codes))

    @property
    def prec(self) -> int:
        """The window `known`, under the name the matrix code reads."""
        return self.known

    @property
    def spec(self) -> FieldSpec:
        return self.ctx.spec

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
        while e > 0 and not num.is_unit():
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
        while e > 0 and not num.is_unit():
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

    def residue_code(self) -> int:
        """Code of the first Witt coordinate of an integral value."""
        if self.known < 1:
            raise InsufficientPrecision("no provable digits")
        s = self.stripped()
        if s.e > 0:
            raise NotIntegral(f"denominator p^{s.e} remains")
        return self.ctx.spec._vec_to_code(s.num.v)

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
            "coords": [self.ctx.spec._code_to_vec(c) for c in s.num.coords],
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
        wx = ctx.from_coord_codes(int_to_coords(x, p, length))
        wy = ctx.from_coord_codes(int_to_coords(y, p, length))
        ok_sum = (wx + wy).coords == int_to_coords((x + y) % mod, p, length)
        ok_prod = (wx * wy).coords == int_to_coords((x * y) % mod, p, length)
        passed += ok_sum and ok_prod
    return {"p": p, "N": length, "samples": samples, "passed_samples": passed}
