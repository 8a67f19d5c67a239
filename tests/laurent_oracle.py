"""Reference truncated Laurent series with every coefficient boxed as FqElem,
and the matrix forms that `loopzip` replaced with closed forms.

The boxed series is the coefficient-object implementation that
`loopzip.series` replaced with int codes indexed straight into the field
tables.  Its arithmetic goes through `FqElem`, a field element object over
the same `FieldSpec` tables, one coefficient at a time, so it is slow but
plainly correct; the tests compare the code-based `LaurentElt` against it.

`mu_matrix` and `full_inverse` are the diagonal matrix of mu(pi) and the
Gauss-Jordan loop that updates every column with a product and then a
difference; the tests compare `grpdata.times_mu`, `sub_mul` and the
live-column `Mat.inverse` against them, in both rings.

    PYTHONPATH=src:tests python tests/laurent_oracle.py

runs those comparisons at full size and prints the mismatch counts.
"""

from __future__ import annotations

import random
import sys

from loopzip.errors import (
    InsufficientPrecision,
    LoopZipError,
    NotAUnit,
    NotInvertible,
    NotIntegral,
    SpecMismatch,
)
from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter, check_mu_window, times_mu
from loopzip.matring import Mat, _select_pivot
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction


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

    def sub_mul(self, c: "BoxedLaurent", y: "BoxedLaurent") -> "BoxedLaurent":
        return self - c * y

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


# -- the matrix forms replaced by closed forms ----------------------------------------


def diagonal(diag) -> Mat:
    """diag(d_1, ..., d_n); its zeros take the least window of the d_i."""
    n = len(diag)
    zero = diag[0].zero_at(min(x.prec for x in diag))
    return Mat([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])


def mu_matrix(mu, one) -> Mat:
    """diag(pi^{d_1}, ..., pi^{d_n}) in the ring of `one`, at its window."""
    check_mu_window(mu, one)
    # pi^d = pi^d * 1 with the 1 known to prec - d, so pi^d is known to prec
    return diagonal([one.one_at(one.prec - d).shifted(d) for d in mu.weights])


def negated(x):
    """-x at the window of x, each coefficient or numerator coordinate negated."""
    if isinstance(x, LaurentElt):
        neg = x.spec.neg_table
        return LaurentElt(x.spec, x.v, x.prec, [neg[c] for c in x.codes])
    mod = x.ctx.mod
    return WittFraction(x.ctx, x.e, tuple(-c % mod for c in x.num), x.known)


def difference(x, y):
    """x - y as x + (-y): stored at the least of the two windows, and raising
    as the sum does."""
    return x + negated(y)


def full_inverse(m: Mat) -> Mat:
    """Gauss-Jordan with minimal-valuation pivot selection, every column of
    w updated by a product and then a difference."""
    n = m.n
    w = [list(r) for r in m.rows]
    one = m.rows[0][0].one_at(m.min_precision())
    aug = [list(r) for r in Mat.identity(n, one).rows]
    for col in range(n):
        piv = _select_pivot(w, rows=range(col, n), cols=[col])
        if piv is None:
            raise NotInvertible(f"no usable pivot in column {col}")
        i, _ = piv
        if i != col:
            w[col], w[i] = w[i], w[col]
            aug[col], aug[i] = aug[i], aug[col]
        pinv = w[col][col].inverse()
        w[col] = [pinv * x for x in w[col]]
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            c = w[r][col]
            if c.valuation() is None:
                continue
            w[r] = [difference(x, c * y) for x, y in zip(w[r], w[col])]
            aug[r] = [difference(x, c * y) for x, y in zip(aug[r], aug[col])]
    return Mat(aug)


# -- closed forms against the forms they replaced ---------------------------------------


def entry_form(x) -> tuple:
    """What a closed form must reproduce of an entry: the stored window and
    coefficients (v, prec, codes) of a Laurent series, the exponent, window
    and numerator coordinates (e, known, coords) of a Witt fraction."""
    if isinstance(x, LaurentElt):
        return x.v, x.prec, x.codes
    return x.e, x.known, x.ctx.coords(x.num)


def stored(build):
    """The entry forms of what build() returns, an entry or a matrix, or the
    class and message of the loopzip error it raises."""
    try:
        out = build()
    except LoopZipError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Mat):
        return [entry_form(x) for r in out.rows for x in r]
    return entry_form(out)


def raised(form) -> bool:
    """Whether a `stored` result is an error."""
    return isinstance(form, tuple) and isinstance(form[0], str)


def random_entry(one, rng):
    """An entry in the ring of `one` of random shape: a Laurent series with
    poles, stored leading zeros or an empty window, or a Witt fraction with
    a denominator, an unstripped numerator or a short window."""
    if isinstance(one, WittFraction):
        ctx = one.ctx
        e = rng.choice((0, 0, 1, rng.randrange(ctx.length)))
        num = tuple(rng.randrange(ctx.mod) * ctx.p ** rng.randrange(ctx.length) % ctx.mod
                    for _ in range(ctx.spec.m))
        return WittFraction(ctx, e, num, rng.randrange(1, ctx.length - e + 1))
    v = rng.randrange(-2, 3)
    n = rng.choice((0, 1, 2, 3, 5, 8))
    codes = [rng.randrange(one.spec.q) for _ in range(n)]
    if rng.random() < 0.3:
        zeros = rng.randrange(n + 1)
        codes[:zeros] = [0] * zeros
    return LaurentElt(one.spec, v, v + n, codes)


def random_matrix(one, n: int, rng, wild: float) -> Mat:
    """n x n matrix whose entries are random integral elements at the window
    of `one`, each replaced by a `random_entry` with probability `wild`."""
    q = one.spec.q
    return Mat([[random_entry(one, rng) if rng.random() < wild
                 else one.from_codes([rng.randrange(q) for _ in range(one.prec)])
                 for _ in range(n)] for _ in range(n)])


def random_one(rng):
    """A Laurent or Witt-fraction 1 over a random small field and window."""
    q = rng.choice((2, 3, 4, 5, 9))
    spec = FieldSpec.for_q(q)
    if rng.random() < 0.5:
        return LaurentElt.one(spec, rng.randrange(2, 9))
    return WittFraction.one(WittCtx.get(spec, rng.randrange(2, 5 if spec.p <= 3 else 3)))


def times_mu_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors): `times_mu` against the product by
    `mu_matrix` on random Laurent matrices, n <= 3 and weights in -2..3."""
    rng = random.Random(seed)
    bad = errors = 0
    for _ in range(cases):
        spec = FieldSpec.for_q(rng.choice((2, 3, 4, 9)))
        n = rng.randrange(1, 4)
        mu = Cocharacter(sorted((rng.randrange(-2, 4) for _ in range(n)), reverse=True))
        prec = max(max(mu.weights) + 1, 1) + rng.randrange(6)
        x = random_matrix(LaurentElt.one(spec, rng.randrange(1, 9)), n, rng, 0.4)
        got = stored(lambda: times_mu(x, mu, prec))
        bad += got != stored(lambda: x * mu_matrix(mu, LaurentElt.one(spec, prec)))
        errors += raised(got)
    return cases, bad, errors


def sub_mul_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors): x.sub_mul(c, y) against x - c * y on
    random entries of both rings."""
    rng = random.Random(seed)
    bad = errors = 0
    for _ in range(cases):
        one = random_one(rng)
        x, c, y = (random_entry(one, rng) for _ in range(3))
        got = stored(lambda: x.sub_mul(c, y))
        bad += got != stored(lambda: difference(x, c * y))
        errors += raised(got)
    return cases, bad, errors


def inverse_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors): `Mat.inverse` against `full_inverse` on
    random matrices of both rings, n <= 3, with some entries of random shape."""
    rng = random.Random(seed)
    bad = errors = 0
    for _ in range(cases):
        x = random_matrix(random_one(rng), rng.randrange(1, 4), rng, rng.choice((0, 0.1, 0.3)))
        got = stored(x.inverse)
        bad += got != stored(lambda: full_inverse(x))
        errors += raised(got)
    return cases, bad, errors


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/laurent_oracle.py: the full comparisons
    total = 0
    for name, compare, cases in [("times_mu", times_mu_mismatches, 40_000),
                                 ("sub_mul", sub_mul_mismatches, 320_000),
                                 ("inverse", inverse_mismatches, 90_000)]:
        cases, bad, errors = compare(cases, seed=1)
        total += bad
        print(f"{name}: {cases} cases, {errors} raised, {bad} mismatches")
    sys.exit(1 if total else 0)
