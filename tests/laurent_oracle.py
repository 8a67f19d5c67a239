"""Reference truncated Laurent series with every coefficient boxed as FqElem.

This is the coefficient-object implementation that `loopzip.series`
replaced with int codes indexed straight into the field tables.  Its
arithmetic goes through `FqElem`, a field element object over the same
`FieldSpec` tables, one coefficient at a time, so it is slow but plainly
correct; the tests compare the code-based `LaurentElt` against it.
"""

from __future__ import annotations

from loopzip.errors import (
    InsufficientPrecision,
    NotAUnit,
    NotIntegral,
    SpecMismatch,
)
from loopzip.gf import FieldSpec
from loopzip.series import LaurentElt


class FqElem:
    """Element of F_{p^m}; immutable, one int code plus its spec."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def _coerce(self, other: "FqElem") -> None:
        if other.spec is not self.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._coerce(other)
        return FqElem(self.spec, self.spec.add_table[self.code][other.code])

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._coerce(other)
        return FqElem(
            self.spec, self.spec.add_table[self.code][self.spec.neg_table[other.code]]
        )

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._coerce(other)
        return FqElem(self.spec, self.spec.mul_table[self.code][other.code])

    def __neg__(self) -> "FqElem":
        return FqElem(self.spec, self.spec.neg_table[self.code])

    def inverse(self) -> "FqElem":
        if self.code == 0:
            raise ZeroDivisionError("inverse of 0")
        return FqElem(self.spec, self.spec.inv_table[self.code])

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        acc = FqElem(self.spec, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Little-endian coefficient vector in the basis 1, w, w^2."""
        return tuple(self.spec._code_to_vec(self.code))

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and other.spec is self.spec
            and other.code == self.code
        )

    def __hash__(self):
        return hash((id(self.spec), self.code))

    def __repr__(self):
        if self.spec.m == 1:
            return str(self.code)
        names = ("1", "w", "w^2")
        terms = [
            (names[i] if c == 1 else f"{c}*{names[i]}") if i else str(c)
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def element(spec: FieldSpec, code: int) -> FqElem:
    """The boxed element with field code `code`, range-checked."""
    if not 0 <= code < spec.q:
        raise ValueError(f"code {code} out of range for q={spec.q}")
    return FqElem(spec, code)


class BoxedLaurent:
    """Truncated Laurent series: FqElem coefficients for exponents v..prec-1."""

    __slots__ = ("spec", "v", "prec", "coeffs")

    def __init__(self, spec: FieldSpec, v: int, prec: int, coeffs):
        if v > prec:
            raise ValueError(f"v={v} exceeds prec={prec}")
        coeffs = tuple(coeffs)
        if len(coeffs) != prec - v:
            raise ValueError(f"need {prec - v} coefficients, got {len(coeffs)}")
        self.spec = spec
        self.v = v
        self.prec = prec
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec: FieldSpec, prec: int) -> "BoxedLaurent":
        """0 + O(t^prec), stored as a full window of zero coefficients."""
        v = min(0, prec)
        return BoxedLaurent(spec, v, prec, (FqElem(spec, 0),) * (prec - v))

    @staticmethod
    def const(c: FqElem, prec: int) -> "BoxedLaurent":
        if prec <= 0:
            raise InsufficientPrecision("constant needs prec >= 1")
        return BoxedLaurent(c.spec, 0, prec, (c,) + (FqElem(c.spec, 0),) * (prec - 1))

    @staticmethod
    def one(spec: FieldSpec, prec: int) -> "BoxedLaurent":
        return BoxedLaurent.const(FqElem(spec, 1), prec)

    # the ring constants the matrix code asks its entries for
    def zero_at(self, prec: int) -> "BoxedLaurent":
        return BoxedLaurent.zero(self.spec, prec)

    def one_at(self, prec: int) -> "BoxedLaurent":
        return BoxedLaurent.one(self.spec, prec)

    @staticmethod
    def t_power(spec: FieldSpec, d: int, prec: int) -> "BoxedLaurent":
        """t^d known modulo t^prec; requires d < prec."""
        if d >= prec:
            raise InsufficientPrecision(f"t^{d} not representable at prec {prec}")
        return BoxedLaurent(
            spec, d, prec, (FqElem(spec, 1),) + (FqElem(spec, 0),) * (prec - d - 1)
        )

    @staticmethod
    def from_coeff_list(spec: FieldSpec, v: int, codes, prec: int) -> "BoxedLaurent":
        """Coefficients given as integer codes starting at exponent v."""
        coeffs = [element(spec, c) for c in codes]
        if v + len(coeffs) > prec:
            coeffs = coeffs[: prec - v]
        coeffs += [FqElem(spec, 0)] * (prec - v - len(coeffs))
        return BoxedLaurent(spec, v, prec, coeffs)

    # -- basic queries ---------------------------------------------------------

    def coeff(self, e: int) -> FqElem:
        """Formal coefficient at exponent e < prec (zero outside the window)."""
        if e >= self.prec:
            raise InsufficientPrecision(f"coefficient at t^{e} beyond prec {self.prec}")
        if e < self.v:
            return FqElem(self.spec, 0)
        return self.coeffs[e - self.v]

    def trimmed(self) -> "BoxedLaurent":
        """Advance v past stored leading zeros (value unchanged)."""
        i = 0
        while i < len(self.coeffs) and self.coeffs[i].is_zero():
            i += 1
        if i == 0:
            return self
        return BoxedLaurent(self.spec, self.v + i, self.prec, self.coeffs[i:])

    def valuation(self):
        """Exponent of the leading nonzero term, or None if zero in-window."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return self.v + i
        return None

    def is_integral(self) -> bool:
        """No nonzero stored coefficient at a negative exponent."""
        val = self.valuation()
        return self.prec >= 0 and (val is None or val >= 0)

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: "BoxedLaurent") -> None:
        if other.spec is not self.spec:
            raise SpecMismatch("mixed field specifications")

    def __add__(self, other: "BoxedLaurent") -> "BoxedLaurent":
        self._coerce(other)
        prec = min(self.prec, other.prec)
        v = min(self.v, other.v, prec)
        coeffs = []
        zero = FqElem(self.spec, 0)
        for e in range(v, prec):
            a = self.coeffs[e - self.v] if self.v <= e < self.prec else zero
            b = other.coeffs[e - other.v] if other.v <= e < other.prec else zero
            coeffs.append(a + b)
        return BoxedLaurent(self.spec, v, prec, coeffs)

    def __neg__(self) -> "BoxedLaurent":
        return BoxedLaurent(self.spec, self.v, self.prec, [-c for c in self.coeffs])

    def __sub__(self, other: "BoxedLaurent") -> "BoxedLaurent":
        return self + (-other)

    def __mul__(self, other: "BoxedLaurent") -> "BoxedLaurent":
        """Exact convolution; the window follows the min-rule on trimmed
        operands, since stored leading zeros are exact and cost nothing."""
        self._coerce(other)
        if self.v == self.prec or other.v == other.prec:
            raise InsufficientPrecision("multiplication of an empty window")
        at = self.trimmed()
        bt = other.trimmed()
        prec = min(self.prec + bt.v, other.prec + at.v)
        v = min(self.v + other.v, prec)
        n = prec - v
        mul = self.spec.mul_table
        add = self.spec.add_table
        out = [0] * n
        a = [c.code for c in at.coeffs]
        b = [c.code for c in bt.coeffs]
        base = at.v + bt.v - v
        for i, ai in enumerate(a):
            if ai == 0 or base + i >= n:
                continue
            row = mul[ai]
            top = min(len(b), n - base - i)
            for j in range(top):
                bj = b[j]
                if bj:
                    out[base + i + j] = add[out[base + i + j]][row[bj]]
        return BoxedLaurent(self.spec, v, prec, [FqElem(self.spec, c) for c in out])

    def shifted(self, k: int) -> "BoxedLaurent":
        """Multiply by t^k exactly (window slides by k)."""
        return BoxedLaurent(self.spec, self.v + k, self.prec + k, self.coeffs)

    def inverse(self) -> "BoxedLaurent":
        """Unit inversion: leading coefficient inverted, then the geometric tail."""
        a = self.trimmed()
        if self.v >= self.prec:
            raise InsufficientPrecision("empty window cannot be inverted")
        if a.v >= a.prec or not a.coeffs:
            raise NotAUnit("all stored coefficients are zero")
        w = a.v
        n = a.prec - w
        c0inv = a.coeffs[0].inverse()
        out = [c0inv]
        zero = FqElem(self.spec, 0)
        for k in range(1, n):
            acc = zero
            for i in range(1, k + 1):
                ci = a.coeffs[i] if i < n else zero
                acc = acc + ci * out[k - i]
            out.append(-(c0inv * acc))
        return BoxedLaurent(self.spec, -w, a.prec - 2 * w, out)

    # -- projections ---------------------------------------------------------------

    def reduce_mod_t(self) -> FqElem:
        """Constant coefficient of an integral element."""
        if self.prec < 1:
            raise InsufficientPrecision("prec < 1, constant term unknown")
        val = self.valuation()
        if val is not None and val < 0:
            raise NotIntegral(f"pole of order {-val}")
        return self.coeff(0)

    def residue_code(self) -> int:
        return self.reduce_mod_t().code

    # -- comparisons ------------------------------------------------------------------

    def _normal_form(self):
        nz = tuple(
            (self.v + i, c.code) for i, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return (self.prec, nz)

    def __eq__(self, other):
        """Strict equality: same prec and same formal coefficients below it."""
        if not isinstance(other, BoxedLaurent) or other.spec is not self.spec:
            return NotImplemented
        return self._normal_form() == other._normal_form()

    def __hash__(self):
        return hash((id(self.spec),) + self._normal_form())

    def congruent_mod(self, other: "BoxedLaurent", n: int) -> bool:
        """Agreement of coefficients below t^n; both windows must reach n."""
        self._coerce(other)
        if self.prec < n or other.prec < n:
            raise InsufficientPrecision(
                f"congruence mod t^{n} needs prec >= {n} on both sides"
            )
        lo = min(self.v, other.v)
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, n))

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "v": self.v,
            "prec": self.prec,
            "coeffs": [list(c.coeffs) for c in self.coeffs],
        }

    @staticmethod
    def from_json(spec: FieldSpec, data: dict) -> "BoxedLaurent":
        coeffs = [FqElem(spec, spec.from_coeffs(c)) for c in data["coeffs"]]
        return BoxedLaurent(spec, data["v"], data["prec"], coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.v + i
            cs = repr(c)
            if "+" in cs:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            elif e == 1:
                terms.append(f"{cs}*t" if cs != "1" else "t")
            else:
                terms.append(f"{cs}*t^{e}" if cs != "1" else f"t^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.prec})"


def from_coeff_list(spec: FieldSpec, v: int, codes, prec: int) -> LaurentElt:
    """A LaurentElt from integer codes starting at exponent v, cut or
    zero-padded to the window v..prec-1."""
    codes = spec.checked_codes(codes)
    if v + len(codes) > prec:
        codes = codes[: prec - v]
    return LaurentElt(spec, v, prec, codes + (0,) * (prec - v - len(codes)))
