"""Reference truncated Laurent series with every coefficient boxed as FqElem,
and the matrix forms that `loopzip` replaced with closed forms.

The boxed series is the coefficient-object implementation that
`loopzip.series` replaced with int codes indexed straight into the field
tables.  Its arithmetic goes through `FqElem`, a field element object over
the same `FieldSpec` tables, one coefficient at a time, so it is slow but
plainly correct; the tests compare the code-based `LaurentElt` against it.

`mu_matrix` and `full_inverse` are the diagonal matrix of mu(pi) and the
Gauss-Jordan loop that updates every column with a product and then a
difference, and `full_diagonalize` is the diagonal decomposition that
updates every row and column at every step; the tests compare
`grpdata.times_mu`, `sub_mul`, `Mat.inverse` and `snf_residues` against
them, in both rings.  `Mat.inverse` and `snf_residues` compute only the
entries they read again, so the two loops have a poison mode: an update
of an entry that those skip, if it raises, leaves POISON, which no later
step may read, where the plain loop would raise.  Only
`full_diagonalize` carries a and b in full, and `factorization_overclaims`
checks its decompositions against x.  `running_sum_product` is the matrix
product that builds every entry as a running sum of built products, which
the tests compare `Mat.__mul__` against, and `full_integral_mat` and
`full_left_h_mat` are the random draws that build every series of every
rejected matrix, which they compare `grpdata`'s draws against.

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
from loopzip.grpdata import Cocharacter, check_mu_window, conj_by_mu, random_laurent, times_mu
from loopzip.matring import Mat, _select_pivot, flat_invertible, flat_residue, snf_residues
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


def running_sum_product(x: Mat, y: Mat) -> Mat:
    """x * y with each entry the running sum acc = acc + x_ik * y_kj, every
    product and partial sum built."""
    x._coerce(y)
    n = x.n
    cols = list(zip(*y.rows))
    out = []
    for i in range(n):
        row = x.rows[i]
        orow = []
        for j in range(n):
            col = cols[j]
            acc = row[0] * col[0]
            for k in range(1, n):
                acc = acc + row[k] * col[k]
            orow.append(acc)
        out.append(orow)
    return Mat(out)


def full_integral_mat(spec: FieldSpec, n: int, prec: int, rng) -> Mat:
    """Random element of the integral loop group at the given precision."""
    while True:
        rows = [[random_laurent(spec, rng, 0, prec) for _ in range(n)] for _ in range(n)]
        m = Mat(rows)
        if flat_invertible(spec, n, flat_residue(m)):
            return m


def full_left_h_mat(spec: FieldSpec, mu: Cocharacter, prec: int, rng) -> Mat:
    """Random element of L+G intersected with mu(t)^(-1) L+G mu(t).

    Built as mu(t)^(-1) k mu(t) for k integral with upper blocks divisible
    by t^(d_i - d_j); the reduction of k is then block lower triangular, so
    we resample until its diagonal blocks are invertible.
    """
    n = mu.n
    d = mu.weights
    if max(d) - min(d) > prec:
        raise ValueError(f"drawing g with integral mu-conjugate needs entries divisible by "
                         f"t^{max(d) - min(d)}, the weight gap of mu, beyond precision {prec}")
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                gap = d[i] - d[j]
                row.append(random_laurent(spec, rng, max(gap, 0), prec))
            rows.append(row)
        k = Mat(rows)
        if not flat_invertible(spec, n, flat_residue(k)):
            continue
        g = conj_by_mu(k, mu, +1)
        if not g.is_integral():
            raise AssertionError("mu-conjugate of a block-divisible matrix is not integral")
        return g


class PoisonRead(AssertionError):
    """An oracle read an entry that a poison-mode update left poisoned."""


class _Poison:
    """What a raising update leaves, in poison mode, in an entry of w that the
    one rule of `Mat.inverse` and `snf_residues` never computes.  Reading it
    in any way, an attribute or an operator, raises `PoisonRead`."""

    def _read(self, *args):
        raise PoisonRead("a poison entry was read")

    __getattr__ = __mul__ = __rmul__ = __add__ = __radd__ = _read


POISON = _Poison()


def _update(skipped: bool, build, *operands):
    """build(), an update of an entry of w.  `skipped` marks, in poison mode,
    an entry the one rule never computes: it is POISON when an operand is
    POISON or build() raises.  Any other update reads a POISON operand."""
    if not skipped:
        return build()
    if any(x is POISON for x in operands):
        return POISON
    try:
        return build()
    except LoopZipError:
        return POISON


def _zero(x, skipped: bool) -> bool:
    """Whether x, an elimination's guard entry, is zero within its window.
    In a row or column that the one rule skips (`skipped`), every entry an
    update computes is zero, so POISON there counts as zero."""
    return skipped and x is POISON or x.valuation() is None


def full_inverse(m: Mat, poison: bool = False) -> Mat:
    """Gauss-Jordan with minimal-valuation pivot selection, every column of
    w updated by a product and then a difference.  With `poison`, an update
    of a column at or left of the pivot, which `Mat.inverse` skips, leaves
    POISON where it raises."""
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
        w[col] = [_update(poison and j <= col, lambda x=x: pinv * x, x)
                  for j, x in enumerate(w[col])]
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            c = w[r][col]
            if c.valuation() is None:
                continue
            w[r] = [_update(poison and j <= col, lambda x=x, y=y: difference(x, c * y), x, y)
                    for j, (x, y) in enumerate(zip(w[r], w[col]))]
            aug[r] = [difference(x, c * y) for x, y in zip(aug[r], aug[col])]
    return Mat(aug)


def full_diagonalize(x: Mat, residues: bool, poison: bool = False):
    """`snf_residues`' decomposition x = a * diag(pi^d) * b, updating every
    row and column of w at every step: (a, d, b) with a and b integral
    matrices of unit reduction, or snf_residues' triple when `residues`.
    With `poison`, an update that snf_residues skips leaves POISON where it
    raises: at step k, of an entry in a row or column left of k, of the
    pivot row right of the pivot in the column elimination, and at the last
    step the unit's inverse and the scaled pivot row; a guard entry left of
    k that is POISON counts as zero (`_zero`)."""
    n = x.n
    w = [list(r) for r in x.rows]
    # built in both modes, so that a window below 1 raises in both
    one = x.rows[0][0].one_at(x.min_precision())
    if residues:
        mul, add = one.spec.mul_table, one.spec.add_table
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        ident = Mat.identity(n, one).rows
    a = [list(r) for r in ident]
    b = [list(r) for r in ident]
    d = [0] * n

    for k in range(n):
        piv = _select_pivot(w, rows=range(k, n), cols=range(k, n))
        if piv is None:
            raise NotInvertible(
                "remaining minor is zero within precision; no finite determinant valuation"
            )
        pi, pj = piv
        if pi != k:
            w[k], w[pi] = w[pi], w[k]
            for r in range(n):
                a[r][k], a[r][pi] = a[r][pi], a[r][k]
        if pj != k:
            for r in range(n):
                w[r][k], w[r][pj] = w[r][pj], w[r][k]
            b[k], b[pj] = b[pj], b[k]
        v = w[k][k].valuation()
        d[k] = v
        unit = w[k][k].shifted(-v)
        last = poison and k == n - 1
        uinv = _update(last, unit.inverse)
        # scale the pivot row to pi^v; a picks up the unit on its column
        w[k] = [_update(last or poison and j < k, lambda c=c: uinv * c, uinv, c)
                for j, c in enumerate(w[k])]
        if residues:
            by_u = mul[unit.residue_code()]
            for r in range(n):
                a[r][k] = by_u[a[r][k]]
        else:
            for r in range(n):
                a[r][k] = a[r][k] * unit
        # pivot row is now normalized to pi^v, so quotients are plain shifts
        for i in range(n):
            if i == k or _zero(w[i][k], poison and i < k):
                continue
            c = w[i][k].shifted(-v)
            w[i] = [_update(poison and (i < k or j < k), lambda p=p, q=q: p.sub_mul(c, q), p, q)
                    for j, (p, q) in enumerate(zip(w[i], w[k]))]
            if residues:
                by_c = mul[c.residue_code()]
                for r in range(n):
                    a[r][k] = add[a[r][k]][by_c[a[r][i]]]
            else:
                for r in range(n):
                    a[r][k] = a[r][k] + a[r][i] * c
        for j in range(n):
            if j == k or _zero(w[k][j], poison and j < k):
                continue
            c = w[k][j].shifted(-v)
            for r in range(n):
                w[r][j] = _update(poison and (r <= k or j < k),
                                  lambda: w[r][j].sub_mul(w[r][k], c), w[r][j], w[r][k])
            if residues:
                by_c = mul[c.residue_code()]
                b[k] = [add[p][by_c[q]] for p, q in zip(b[k], b[j])]
            else:
                b[k] = [p + c * q for p, q in zip(b[k], b[j])]

    # sort d non-increasing, stably, and conjugate by the permutation
    order = sorted(range(n), key=lambda i: (-d[i], i))
    d_sorted = tuple(d[i] for i in order)
    a_sorted = [[a[r][order[c]] for c in range(n)] for r in range(n)]
    b_sorted = [b[order[r]] for r in range(n)]
    if residues:
        return tuple(c for r in a_sorted for c in r), d_sorted, tuple(c for r in b_sorted for c in r)
    return Mat(a_sorted), d_sorted, Mat(b_sorted)


# -- closed forms against the forms they replaced ---------------------------------------


def entry_form(x) -> tuple:
    """What a closed form must reproduce of an entry: the stored window and
    coefficients (v, prec, codes) of a Laurent series, boxed or not, the
    exponent, window and numerator coordinates (e, known, coords) of a Witt
    fraction."""
    if isinstance(x, LaurentElt):
        return x.v, x.prec, x.codes
    if isinstance(x, BoxedLaurent):
        return x.v, x.prec, tuple(c.code for c in x.coeffs)
    return x.e, x.known, x.ctx.coords(x.num)


def stored(build):
    """The entry forms of what build() returns, an entry or a matrix, the
    residue triple of a decomposition as it is, or the class and message of
    the loopzip error or the `PoisonRead` it raises."""
    try:
        out = build()
    except (LoopZipError, PoisonRead) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Mat):
        return [entry_form(x) for r in out.rows for x in r]
    return out if isinstance(out, tuple) else entry_form(out)


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


def _shapes(m: Mat) -> set:
    """The entry shapes a product sweep must reach that occur in m."""
    found = set()
    for x in (x for r in m.rows for x in r):
        if isinstance(x, WittFraction):
            if x.e:
                found.add("pole")
            continue
        val = x.valuation()
        found |= {name for name, hit in (("empty window", x.v == x.prec),
                                         ("pole", val is not None and val < 0),
                                         ("stored leading zeros", x.codes[:1] == (0,)))
                  if hit}
    return found


def product_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors, shapes): `Mat.__mul__` against
    `running_sum_product`, entry forms or error class and message.  The
    factors come in turn from `random_matrix` over both rings (n <= 3, some
    entries of random shape) and from the `random_pole_matrix` of this module
    and of `witt_oracle`, each paired with a `random_matrix` on its side, in
    either order; in every tenth case one entry of a factor is over another
    field.  `shapes` names the entry shapes and the mixed-field case that the
    factors reached."""
    from witt_oracle import random_pole_matrix as witt_pole_matrix  # witt_oracle imports this module
    rng = random.Random(seed)

    def random_pair():
        one, n = random_one(rng), rng.randrange(1, 4)
        return [random_matrix(one, n, rng, rng.choice((0, 0.2, 0.5))) for _ in range(2)]

    def pole_pair(x):
        y = random_matrix(x.rows[0][0].one_at(rng.randrange(1, 7)), x.n, rng, 0.3)
        return (x, y) if rng.random() < 0.5 else (y, x)

    draws = (random_pair,
             lambda: pole_pair(random_pole_matrix(rng)),
             lambda: pole_pair(witt_pole_matrix(rng)))
    bad = errors = 0
    shapes = set()
    for case in range(cases):
        x, y = draws[case % 3]()
        if case % 10 == 9:
            other = random_one(rng)
            while type(other) is not type(x.rows[0][0]) or other.spec is x.rows[0][0].spec:
                other = random_one(rng)
            factor = rng.choice((x, y))
            rows = [list(r) for r in factor.rows]
            rows[rng.randrange(x.n)][rng.randrange(x.n)] = random_entry(other, rng)
            x, y = (Mat(rows), y) if factor is x else (x, Mat(rows))
            shapes.add("mixed fields")
        got = stored(lambda: x * y)
        bad += got != stored(lambda: running_sum_product(x, y))
        errors += raised(got)
        shapes |= _shapes(x) | _shapes(y)
    return cases, bad, errors, shapes


def _against_poison_oracle(got, oracle) -> tuple:
    """(mismatch, poison read, returned): whether got differs from the poison
    mode of the oracle, whether that mode read a poison entry, and whether
    got is a result where the plain oracle raises."""
    want = stored(lambda: oracle(True))
    return (got != want, want[0] == PoisonRead.__name__,
            not raised(got) and raised(stored(lambda: oracle(False))))


def inverse_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors, poison reads, returned): `Mat.inverse`
    against the poison mode of `full_inverse` on random matrices of both
    rings, n <= 3, with some entries of random shape; `returned` counts the
    inverses that the plain `full_inverse` refuses."""
    rng = random.Random(seed)
    bad = errors = poisoned = returned = 0
    for _ in range(cases):
        x = random_matrix(random_one(rng), rng.randrange(1, 4), rng, rng.choice((0, 0.1, 0.3)))
        got = stored(x.inverse)
        mismatch, poison_read, rescued = _against_poison_oracle(
            got, lambda poison: full_inverse(x, poison))
        bad += mismatch
        poisoned += poison_read
        returned += rescued
        errors += raised(got)
    return cases, bad, errors, poisoned, returned


def diagonalize_mismatches(cases: int, seed: int) -> tuple:
    """(cases, mismatches, errors, empty, poison reads, returned):
    snf_residues against the poison mode of `full_diagonalize`, the draws
    taken in turn from `random_matrix` over both rings (n <= 3, some entries
    of random shape) and from the `random_pole_matrix` of this module and of
    `witt_oracle`.  A case is a mismatch when the residue triples or the
    errors differ, an error when snf_residues raises; `empty` counts the
    Laurent inputs with an empty window, and `returned` the decompositions
    that the plain `full_diagonalize` refuses."""
    from witt_oracle import random_pole_matrix as witt_pole_matrix  # witt_oracle imports this module
    rng = random.Random(seed)
    draws = (lambda: random_matrix(random_one(rng), rng.randrange(1, 4), rng,
                                   rng.choice((0, 0.1, 0.3))),
             lambda: random_pole_matrix(rng),
             lambda: witt_pole_matrix(rng))
    bad = errors = empty = poisoned = returned = 0
    for case in range(cases):
        x = draws[case % 3]()
        got = stored(lambda: snf_residues(x))
        mismatch, poison_read, rescued = _against_poison_oracle(
            got, lambda poison: full_diagonalize(x, True, poison))
        bad += mismatch
        poisoned += poison_read
        returned += rescued
        errors += raised(got)
        empty += isinstance(x.rows[0][0], LaurentElt) and any(
            e.v == e.prec for r in x.rows for e in r)
    return cases, bad, errors, empty, poisoned, returned


# -- exact check of a decomposition x = a diag(t^d) b ---------------------------------


def _stored_terms(x: LaurentElt) -> dict:
    """The Laurent polynomial that x stores, as exponent -> nonzero code."""
    return {x.v + i: c for i, c in enumerate(x.codes) if c}


def factorization_overclaims(x: Mat, a: Mat, d, b: Mat) -> list:
    """Cells (i, j) where a diag(t^d) b, computed exactly over F_q from the
    stored coefficient windows, differs from x_ij modulo t^k, k the lesser of
    the window of x_ij and the window the series arithmetic gives that
    product entry.  The series product takes t^d and 0 at a window so wide
    that it never binds: the windows of a and b alone decide its own."""
    spec, n = x.rows[0][0].spec, x.n
    add, mul, neg = spec.add_table, spec.mul_table, spec.neg_table
    wide = sum(abs(e.v) + abs(e.prec) for m in (x, a, b) for r in m.rows for e in r)
    wide += sum(abs(k) for k in d) + 1
    diag = Mat([[LaurentElt.t_power(spec, d[i], wide) if i == j else LaurentElt.zero(spec, wide)
                 for j in range(n)] for i in range(n)])
    claimed = a * diag * b
    bad = []
    for i in range(n):
        for j in range(n):
            diff = _stored_terms(x.rows[i][j])
            for k in range(n):
                for ea, ca in _stored_terms(a.rows[i][k]).items():
                    for eb, cb in _stored_terms(b.rows[k][j]).items():
                        e = ea + d[k] + eb
                        diff[e] = add[diff.get(e, 0)][neg[mul[ca][cb]]]
            window = min(x.rows[i][j].prec, claimed.rows[i][j].prec)
            if any(c and e < window for e, c in diff.items()):
                bad.append((i, j))
    return bad


def random_pole_matrix(rng) -> Mat:
    """An n x n Laurent matrix over F_q, q in {2, 3, 4, 9}, n in {2, 3}, at a
    window in 2..6: `random_matrix` cells, with a pole t^(-1) in one of them;
    a `random_entry` cell has a pole, stored leading zeros or an empty window."""
    spec = FieldSpec.for_q(rng.choice((2, 3, 4, 9)))
    one = LaurentElt.one(spec, rng.randrange(2, 7))
    n = rng.choice((2, 3))
    rows = [list(r) for r in random_matrix(one, n, rng, 0.4).rows]
    pole = rng.randrange(n * n)
    rows[pole // n][pole % n] = LaurentElt(
        spec, -1, one.prec, [rng.randrange(1, spec.q)] + [rng.randrange(spec.q)
                                                          for _ in range(one.prec)])
    return Mat(rows)


def factorization_sweep(samples: int, seed: int) -> tuple:
    """(decomposed, flagged, refused): `full_diagonalize` on
    `random_pole_matrix` draws, counting the decompositions
    `factorization_overclaims` flags and the matrices it refuses."""
    rng = random.Random(seed)
    decomposed = flagged = refused = 0
    for _ in range(samples):
        x = random_pole_matrix(rng)
        try:
            a, d, b = full_diagonalize(x, False)
        except LoopZipError:
            refused += 1
            continue
        decomposed += 1
        flagged += bool(factorization_overclaims(x, a, d, b))
    return decomposed, flagged, refused


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/laurent_oracle.py: the full comparisons
    total = 0
    for name, compare, cases in [("times_mu", times_mu_mismatches, 40_000),
                                 ("sub_mul", sub_mul_mismatches, 320_000)]:
        cases, bad, errors = compare(cases, seed=1)
        total += bad
        print(f"{name}: {cases} cases, {errors} raised, {bad} mismatches")
    cases, bad, errors, poisoned, returned = inverse_mismatches(90_000, seed=1)
    total += bad
    print(f"inverse: {cases} cases, {errors} raised, {bad} mismatches, {poisoned} poison reads; "
          f"{returned} inverted where the plain full loop raises")
    cases, bad, errors, shapes = product_mismatches(60_000, seed=1)
    total += bad
    print(f"product: {cases} cases, {errors} raised, {bad} mismatches; reached "
          + ", ".join(sorted(shapes)))
    # 20,000 draws from each of the three generators
    cases, bad, errors, empty, poisoned, returned = diagonalize_mismatches(60_000, seed=1)
    total += bad
    print(f"diagonalize: {cases} cases, {empty} with an empty Laurent window, "
          f"{errors} raised, {bad} mismatches, {poisoned} poison reads; "
          f"{returned} decomposed where the plain full loop raises")
    for seed in (0, 1):
        decomposed, flagged, refused = factorization_sweep(2000, seed)
        print(f"factorization sweep, seed {seed}: 2000 matrices, {refused} refused, "
              f"{decomposed} decomposed, {flagged} flagged")
        total += flagged
    sys.exit(1 if total else 0)
