"""Truncated Laurent series over F_q with absolute-precision tracking.

An element is a window of coefficients for exponents v..prec-1 together
with the promise that nothing is known at exponent prec and above.

Coefficients are stored as the field's int codes 0..q-1, and every ring
operation indexes the `FieldSpec` tables directly; `residue_code` is the
reduction mod t.
"""

from __future__ import annotations

from .errors import (
    InsufficientPrecision,
    NotAUnit,
    NotIntegral,
    SpecMismatch,
)
from .gf import FieldSpec


def _leading_zeros(codes) -> int:
    """Number of stored zero codes before the first nonzero one."""
    i = 0
    n = len(codes)
    while i < n and not codes[i]:
        i += 1
    return i


class LaurentElt:
    """Truncated Laurent series: coefficient codes for exponents v..prec-1."""

    __slots__ = ("spec", "v", "prec", "codes")

    def __init__(self, spec: FieldSpec, v: int, prec: int, codes):
        if v > prec:
            raise ValueError(f"v={v} exceeds prec={prec}")
        codes = spec.checked_codes(codes)
        if len(codes) != prec - v:
            raise ValueError(f"need {prec - v} coefficients, got {len(codes)}")
        self.spec = spec
        self.v = v
        self.prec = prec
        self.codes = codes

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec: FieldSpec, prec: int) -> "LaurentElt":
        """0 + O(t^prec), stored as a full window of zero coefficients."""
        v = min(0, prec)
        return _raw(spec, v, prec, (0,) * (prec - v))

    @staticmethod
    def one(spec: FieldSpec, prec: int) -> "LaurentElt":
        if prec <= 0:
            raise InsufficientPrecision("constant needs prec >= 1")
        return _raw(spec, 0, prec, (1,) + (0,) * (prec - 1))

    def zero_at(self, prec: int) -> "LaurentElt":
        return LaurentElt.zero(self.spec, prec)

    def one_at(self, prec: int) -> "LaurentElt":
        return LaurentElt.one(self.spec, prec)

    def from_codes(self, codes) -> "LaurentElt":
        """The integral element with coefficients `codes` at t^0..t^(prec-1)."""
        return LaurentElt(self.spec, 0, self.prec, codes)

    @staticmethod
    def t_power(spec: FieldSpec, d: int, prec: int) -> "LaurentElt":
        """t^d known modulo t^prec; requires d < prec."""
        if d >= prec:
            raise InsufficientPrecision(f"t^{d} not representable at prec {prec}")
        return _raw(spec, d, prec, (1,) + (0,) * (prec - d - 1))

    # -- basic queries ---------------------------------------------------------

    def valuation(self):
        """Exponent of the leading nonzero term, or None if zero in-window."""
        i = _leading_zeros(self.codes)
        return self.v + i if i < len(self.codes) else None

    def is_integral(self) -> bool:
        """No nonzero stored coefficient at a negative exponent."""
        val = self.valuation()
        return self.prec >= 0 and (val is None or val >= 0)

    def _window(self, v: int, prec: int) -> tuple:
        """Codes for exponents v..prec-1; needs v <= self.v and prec <= self.prec."""
        k = min(self.v, prec) - v
        return (0,) * k + self.codes[: prec - v - k]

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: "LaurentElt") -> None:
        if other.spec is not self.spec:
            raise SpecMismatch("mixed field specifications")

    def __add__(self, other: "LaurentElt") -> "LaurentElt":
        self._coerce(other)
        prec = min(self.prec, other.prec)
        v = min(self.v, other.v, prec)
        add = self.spec.add_table
        return _raw(self.spec, v, prec, tuple([
            add[a][b] for a, b in zip(self._window(v, prec), other._window(v, prec))
        ]))

    def __mul__(self, other: "LaurentElt") -> "LaurentElt":
        """Exact convolution; the window follows the min-rule on trimmed
        operands, since stored leading zeros are exact and cost nothing."""
        self._coerce(other)
        za, zb, prec = _product_window(self, other)
        v = min(self.v + other.v, prec)
        out = [0] * (prec - v)
        _convolve(out, v, self, za, other, zb, False)
        return _raw(self.spec, v, prec, tuple(out))

    @staticmethod
    def dot(xs, ys) -> "LaurentElt":
        """The sum of the x_k * y_k, stored and raising as the running sum of
        the products stores it and raises, with no product or partial sum built:
        its window ends where the least product window ends."""
        terms = []
        for x, y in zip(xs, ys):
            x._coerce(y)
            terms.append((x, y, *_product_window(x, y)))
            xs[0]._coerce(x)
        prec = min(term[4] for term in terms)
        v = min(min(x.v + y.v for x, y, *_ in terms), prec)
        out = [0] * (prec - v)
        for x, y, za, zb, _ in terms:
            _convolve(out, v, x, za, y, zb, False)
        return _raw(xs[0].spec, v, prec, tuple(out))

    def sub_mul(self, c: "LaurentElt", y: "LaurentElt") -> "LaurentElt":
        """self - c * y, stored as the product and then the difference store
        it, with no product object built."""
        c._coerce(y)
        za, zb, pprec = _product_window(c, y)
        self._coerce(c)
        prec = min(self.prec, pprec)
        v = min(self.v, c.v + y.v, prec)
        out = list(self._window(v, prec))
        _convolve(out, v, c, za, y, zb, True)
        return _raw(self.spec, v, prec, tuple(out))

    def shifted(self, k: int) -> "LaurentElt":
        """Multiply by t^k exactly (window slides by k)."""
        return _raw(self.spec, self.v + k, self.prec + k, self.codes)

    def inverse(self) -> "LaurentElt":
        """Unit inversion: leading coefficient inverted, then the geometric tail."""
        if self.v >= self.prec:
            raise InsufficientPrecision("empty window cannot be inverted")
        z = _leading_zeros(self.codes)
        a = self.codes[z:]
        if not a:
            raise NotAUnit("all stored coefficients are zero")
        spec = self.spec
        mul, add, neg = spec.mul_table, spec.add_table, spec.neg_table
        w = self.v + z
        n = len(a)
        c0inv = spec.inv_table[a[0]]
        by_c0inv = mul[c0inv]
        out = [c0inv]
        for k in range(1, n):
            acc = 0
            for i in range(1, k + 1):
                ai = a[i]
                if ai:
                    acc = add[acc][mul[ai][out[k - i]]]
            out.append(neg[by_c0inv[acc]])
        return _raw(spec, -w, self.prec - 2 * w, tuple(out))

    # -- projections ---------------------------------------------------------------

    def residue_code(self) -> int:
        """Code of the constant coefficient of an integral element."""
        if self.prec < 1:
            raise InsufficientPrecision("prec < 1, constant term unknown")
        val = self.valuation()
        if val is not None and val < 0:
            raise NotIntegral(f"pole of order {-val}")
        return self.codes[-self.v] if self.v <= 0 else 0

    # -- comparisons ------------------------------------------------------------------

    def _normal_form(self):
        nz = tuple((self.v + i, c) for i, c in enumerate(self.codes) if c)
        return (self.prec, nz)

    def __eq__(self, other):
        """Strict equality: same prec and same formal coefficients below it."""
        if not isinstance(other, LaurentElt) or other.spec is not self.spec:
            return NotImplemented
        return self._normal_form() == other._normal_form()

    def __hash__(self):
        return hash((id(self.spec),) + self._normal_form())

    def congruent_mod(self, other: "LaurentElt", n: int) -> bool:
        """Agreement of coefficients below t^n; both windows must reach n."""
        self._coerce(other)
        if self.prec < n or other.prec < n:
            raise InsufficientPrecision(
                f"congruence mod t^{n} needs prec >= {n} on both sides"
            )
        lo = min(self.v, other.v)
        return self._window(lo, n) == other._window(lo, n)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.codes):
            if not c:
                continue
            e = self.v + i
            cs = self.spec.code_repr(c)
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


def _product_window(a: LaurentElt, b: LaurentElt) -> tuple:
    """Leading zero counts of a and b and the end of the window of a * b."""
    if a.v == a.prec or b.v == b.prec:
        raise InsufficientPrecision("multiplication of an empty window")
    za, zb = _leading_zeros(a.codes), _leading_zeros(b.codes)
    return za, zb, min(a.prec + b.v + zb, b.prec + a.v + za)


def _convolve(out: list, v: int, a: LaurentElt, za: int, b: LaurentElt, zb: int,
              negate: bool) -> None:
    """Add a * b (subtract it when `negate`) to out, the codes of exponents
    v.., on the terms that reach its end; za and zb skip the leading zeros."""
    base = a.v + za + b.v + zb - v  # out index of a[za] * b[zb]
    m = len(out) - base  # only the first m terms of each reach the window
    if m > 0:
        mul, add, neg = a.spec.mul_table, a.spec.add_table, a.spec.neg_table
        bw = b.codes[zb:zb + m]
        for i, ai in enumerate(a.codes[za:za + m]):
            if ai:
                row = mul[neg[ai] if negate else ai]
                for k, bj in enumerate(bw[:m - i], base + i):
                    if bj:
                        out[k] = add[out[k]][row[bj]]


def _raw(spec: FieldSpec, v: int, prec: int, codes: tuple) -> LaurentElt:
    """Unchecked constructor for results whose codes are in range by construction."""
    x = _new(LaurentElt)
    x.spec = spec
    x.v = v
    x.prec = prec
    x.codes = codes
    return x


_new = object.__new__
