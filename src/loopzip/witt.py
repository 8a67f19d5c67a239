"""Length-N p-typical Witt vectors over F_q and p-inverted Witt fractions.

W_N(F_q) is computed as the Galois ring GR(p^N, m) = (Z/p^N)[w]/(f), with
f the F_q modulus read as a monic integer polynomial (Serre, Local
Fields, II.5-6).  An element is the tuple of its m coefficients mod p^N,
and the ring operations are `WittCtx` functions on such tuples: sums and
products by arithmetic, valuations, Teichmuller digits and unit inverses
by lookup in tables each context builds once over its p^(Nm) elements.
The Witt vector (a_0, ..., a_{N-1}) is sum_i p^i [a_i^(1/p^i)], [b] being
the Teichmuller lift; coordinates appear only at the edges, read back
from the digit table.

A WittFraction stores p^(-e) * num for a ring tuple num, together with
the exponent `known` of the modulus it is provably correct to.  Stripping
a detectable p-factor from the numerator rewrites the representative
without ever raising `known`, so canonical forms stay honest.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .errors import InsufficientPrecision, NotAUnit, NotIntegral, SpecMismatch
from .gf import FieldSpec, json_int, poly_mul_reduce


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
        # ring tables: each of the p^(Nm) elements is sum_i p^i [b_i] for
        # exactly one tuple b of Teichmuller digits, and its valuation is
        # the index of the first nonzero digit
        self._element = {b: self.teichmuller_sum(enumerate(b))
                         for b in product(range(spec.q), repeat=length)}
        self._digits = {v: b for b, v in self._element.items()}
        self._valuation = {v: next((i for i, c in enumerate(b) if c), None)
                           for v, b in self._digits.items()}
        self._inverse = {v: self._newton_inverse(v) for v, j in self._valuation.items() if j == 0}

    @staticmethod
    @lru_cache(maxsize=None)
    def get(spec: FieldSpec, length: int) -> "WittCtx":
        """Cached with the field object in the key, so a dead field's id is never reused."""
        return WittCtx(spec, length)

    # -- Galois-ring arithmetic on coefficient tuples ---------------------------

    def _mul(self, a: tuple, b: tuple) -> tuple:
        if self.spec.m == 1:  # W_N(F_p) is Z/p^N
            return (a[0] * b[0] % self.mod,)
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

    def _newton_inverse(self, v: tuple) -> tuple:
        """Newton lift x -> 2x - v x^2 of the residue inverse of a unit v."""
        spec = self.spec
        x = tuple(spec._code_to_vec(spec.inv_table[spec._vec_to_code(v)]))
        prec = 1
        while prec < self.length:
            vxx = self._mul(self._mul(v, x), x)
            x = tuple((2 * y - z) % self.mod for y, z in zip(x, vxx))
            prec *= 2
        return x

    def valuation(self, v: tuple):
        """p-adic valuation (index of the first nonzero coordinate), or None."""
        return self._valuation[v]

    def times_p(self, v: tuple, k: int) -> tuple:
        """p^k * v."""
        if not k:
            return v
        pk, mod = self.p**k, self.mod
        return tuple(pk * x % mod for x in v)

    def unshift(self, v: tuple, k: int) -> tuple:
        """Inverse of times_p(., k) on elements whose first k coordinates vanish.

        The top k coordinates of the quotient are not determined by v; by
        convention their Teichmuller digits are zero, which changes the
        value only by a multiple of p^(N-k).
        """
        if not k:
            return v
        digits = self._digits[v]
        if any(digits[:k]):
            raise NotIntegral(f"not divisible by p^{k}")
        return self._element[digits[k:] + (0,) * k]

    def unit_inverse(self, v: tuple) -> tuple:
        """The inverse of a unit, read from the table of inverses."""
        inv = self._inverse.get(v)
        if inv is None:
            raise NotAUnit("Witt vector with zero first coordinate")
        return inv

    def coords(self, v: tuple) -> tuple:
        """Codes of the Witt coordinates a_i = b_i^(p^i), b_i the Teichmuller digits."""
        spec = self.spec
        return tuple(spec.frob_code(b, i) for i, b in enumerate(self._digits[v]))

    # element constructors

    def teichmuller_sum(self, terms) -> tuple:
        """sum of p^s [c] over the (s, c) in terms, s >= 0 and c a field code."""
        p, mod = self.p, self.mod
        acc = [0] * self.spec.m
        for s, c in terms:
            ps = p**s
            acc = [(x + ps * t) % mod for x, t in zip(acc, self._teich[c])]
        return tuple(acc)

    def from_coord_codes(self, codes) -> tuple:
        """The Witt vector whose coordinates have the given field codes."""
        codes = self.spec.checked_codes(codes)
        if len(codes) != self.length:
            raise ValueError(f"need {self.length} coordinates")
        return self._element[tuple(self.spec.frob_code(c, -i) for i, c in enumerate(codes))]

    def from_int(self, n: int) -> tuple:
        """Image of the integer n: n mod p^N in the constant coefficient."""
        return (n % self.mod,) + (0,) * (self.spec.m - 1)


def _cancel_p(ctx: WittCtx, e: int, num: tuple) -> tuple:
    """(e - k, num / p^k) for k = min(e, valuation of num): p^(-e) num with
    its detectable p-factors cancelled, all at once."""
    if e:
        j = ctx.valuation(num)
        k = e if j is None else min(e, j)
        e, num = e - k, ctx.unshift(num, k)
    return e, num


def _reduced(ctx: WittCtx, e: int, num: tuple, known: int) -> "WittFraction":
    """p^(-e) num modulo p^known with its detectable p-factors cancelled: the
    fraction that building p^(-e) num and then stripping it gives."""
    cancelled, num = _cancel_p(ctx, e, num)
    return WittFraction(ctx, cancelled, num, min(known, ctx.length - e))


class WittFraction:
    """p^(-e) * num for a Galois-ring tuple num, provably correct modulo p^known."""

    __slots__ = ("ctx", "e", "num", "known", "num_val", "val")

    def __init__(self, ctx: WittCtx, e: int, num: tuple, known: int | None = None):
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
        # read once per value: the numerator's valuation, which stripping
        # needs, and the value's provable valuation (None when zero within
        # the window: numerator digits at or beyond it are representative
        # junk, so a leading coordinate there proves nothing)
        j = self.num_val = ctx.valuation(num)
        self.val = None if j is None or j - e >= self.known else j - e

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.from_int(0))

    @staticmethod
    def one(ctx: WittCtx) -> "WittFraction":
        return WittFraction(ctx, 0, ctx.from_int(1))

    @staticmethod
    def from_json(ctx: WittCtx, cell: dict) -> "WittFraction":
        """Parse a `to_json` cell; its p and N, where given, must be those of ctx."""
        coords = cell["coords"]
        for key, want in (("p", ctx.p), ("N", ctx.length)):
            got = json_int(cell.get(key, want), key)
            if got != want:
                raise ValueError(f"cell {key}={got} but the header has {want}")
        num = ctx.from_coord_codes([ctx.spec.from_coeffs(c) for c in coords])
        return WittFraction(ctx, json_int(cell.get("e", 0), "e"), num)

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
        """Provable valuation of the value, or None when zero within precision."""
        return self.val

    def stripped(self) -> "WittFraction":
        """Canonical representative: remove detectable p-factors from num.

        `known` never increases, so the congruence class the fraction
        promises is preserved.
        """
        if not self.e or self.num_val == 0:
            return self
        return _reduced(self.ctx, self.e, self.num, self.known)

    def is_integral(self) -> bool:
        """No denominator left once detectable p-factors are stripped."""
        return self.stripped().e == 0

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "WittFraction") -> None:
        if other.ctx is not self.ctx:
            raise SpecMismatch("mixed Witt contexts")

    def _aligned(self, other: "WittFraction") -> tuple:
        """The common exponent e and both numerators over p^(-e)."""
        e = max(self.e, other.e)
        times_p = self.ctx.times_p
        return e, times_p(self.num, e - self.e), times_p(other.num, e - other.e)

    def __add__(self, other: "WittFraction") -> "WittFraction":
        self._coerce(other)
        e, a, b = self._aligned(other)
        mod = self.ctx.mod
        num = tuple((x + y) % mod for x, y in zip(a, b))
        return _reduced(self.ctx, e, num, min(self.known, other.known))

    def _product(self, other: "WittFraction") -> tuple:
        """(e, num, known) of the product of the stripped operands, known not
        yet capped at length - e: the numerator product mod p^N of an operand
        p^(-e) num with e > 0 and p | num holds fewer digits than the window
        below claims."""
        self._coerce(other)
        a, b = self.stripped(), other.stripped()
        v1b = a.known if a.val is None else a.val
        v2b = b.known if b.val is None else b.val
        known = min(a.known + v2b, b.known + v1b)
        if known <= 0:
            raise InsufficientPrecision("product has no provable digits")
        # the raw exponent may exceed the length cap; p-factors contributed
        # by positive-valuation operands can be stripped to repair it
        e, num = _cancel_p(self.ctx, a.e + b.e, self.ctx._mul(a.num, b.num))
        if e >= self.ctx.length:
            raise InsufficientPrecision("denominator exceeds Witt length")
        return e, num, known

    def __mul__(self, other: "WittFraction") -> "WittFraction":
        return WittFraction(self.ctx, *self._product(other))

    def sub_mul(self, c: "WittFraction", y: "WittFraction") -> "WittFraction":
        """self - c * y as one fraction, stored and raising as the product,
        its negation and their sum store it and raise."""
        e_prod, prod, known = c._product(y)
        self._coerce(c)
        e = max(self.e, e_prod)
        times_p, mod = self.ctx.times_p, self.ctx.mod
        a, b = times_p(self.num, e - self.e), times_p(prod, e - e_prod)
        num = tuple((x - z) % mod for x, z in zip(a, b))
        return _reduced(self.ctx, e, num, min(self.known, known))

    def shifted(self, k: int) -> "WittFraction":
        """Multiply by p^k exactly (exponent bookkeeping only)."""
        if k == 0:
            return self
        e = self.e - k
        num = self.ctx.times_p(self.num, max(0, -e))
        return WittFraction(self.ctx, max(0, e), num, self.known + k)

    def inverse(self) -> "WittFraction":
        """Invert; requires a unit numerator after p-factor stripping."""
        s = self.stripped()
        val = s.val
        if val is None:
            raise NotAUnit("not provably a unit within precision")
        ctx = self.ctx
        if val <= 0:
            # value = p^(-e) * unit: the inverse is integral
            inv = ctx.times_p(ctx.unit_inverse(s.num), s.e)
            return WittFraction(ctx, 0, inv, s.known + 2 * s.e)
        # after stripping, e > 0 forces a unit leading coordinate, so here
        # e = 0 and the value is p^val * unit
        unit = ctx.unshift(s.num, val)
        known = s.known - 2 * val
        if known <= 0:
            raise InsufficientPrecision("inverse has no provable digits")
        return WittFraction(ctx, val, ctx.unit_inverse(unit), known)

    # -- projections ------------------------------------------------------------

    def residue_code(self) -> int:
        """Code of the first Witt coordinate of an integral value."""
        if self.known < 1:
            raise InsufficientPrecision("no provable digits")
        s = self.stripped()
        if s.e > 0:
            raise NotIntegral(f"denominator p^{s.e} remains")
        return self.ctx._digits[s.num][0]

    # -- comparisons ----------------------------------------------------------------

    def congruent_mod(self, other: "WittFraction", j: int) -> bool:
        """Values agree modulo p^j (requires j within both known windows)."""
        self._coerce(other)
        if j > self.known or j > other.known:
            raise InsufficientPrecision(f"cannot compare mod p^{j}")
        e, a, b = self._aligned(other)
        pj = self.ctx.p ** min(j + e, self.ctx.length)
        return not any((x - y) % pj for x, y in zip(a, b))

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
            "coords": [self.ctx.spec._code_to_vec(c) for c in self.ctx.coords(s.num)],
            "e": s.e,
        }

    def __repr__(self):
        spec = self.ctx.spec
        body = "(" + ", ".join(spec.code_repr(c) for c in self.ctx.coords(self.num)) + ")"
        if self.e == 0:
            return f"{body} + O(p^{self.known})"
        return f"p^-{self.e}*{body} + O(p^{self.known})"


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
    """Compare Witt-fraction arithmetic on W_N(F_p) against plain integers mod p^N."""
    spec = FieldSpec.get(p, 1)
    ctx = WittCtx.get(spec, length)
    one = WittFraction.one(ctx)
    rng = random.Random(seed)
    mod = p**length
    passed = 0
    for _ in range(samples):
        x, y = rng.randrange(mod), rng.randrange(mod)
        wx = one.from_codes(int_to_coords(x, p, length))
        wy = one.from_codes(int_to_coords(y, p, length))
        ok_sum = ctx.coords((wx + wy).num) == int_to_coords((x + y) % mod, p, length)
        ok_prod = ctx.coords((wx * wy).num) == int_to_coords((x * y) % mod, p, length)
        passed += ok_sum and ok_prod
    return {"name": f"ghost-oracle-p{p}-N{length}", "p": p, "N": length, "samples": samples,
            "passed_samples": passed, "passed": passed == samples}
