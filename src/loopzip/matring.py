"""Square matrices over F_q, truncated Laurent series, or Witt fractions.

Includes Gaussian inversion with valuation-aware pivoting and the
diagonal decomposition x = a * diag(pi^d) * b over the two discrete
valuation rings (pi = t or p), with a and b integral of unit reduction.
"""

from __future__ import annotations

from .errors import (
    InsufficientPrecision,
    NotIntegral,
    NotInvertible,
    SpecMismatch,
)
from .gf import FieldSpec
from .series import LaurentElt
from .witt import WittCtx, WittFraction

FQ = "fq"
LAURENT = "laurent"
WITTFRAC = "wittfrac"

_INF = 10**9


class Mat:
    """Immutable square matrix; entries share one ring context."""

    __slots__ = ("n", "ring", "rows")

    def __init__(self, ring: str, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.ring = ring
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def fq(rows) -> "Mat":
        return Mat(FQ, rows)

    @staticmethod
    def identity(ring: str, n: int, *, spec: FieldSpec = None, prec: int = None,
                 wctx: WittCtx = None) -> "Mat":
        if ring == FQ:
            one, zero = spec.one(), spec.zero()
        elif ring == LAURENT:
            one, zero = LaurentElt.one(spec, prec), LaurentElt.zero(spec, prec)
        else:
            one, zero = WittFraction.one(wctx), WittFraction.zero(wctx)
        return Mat(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(ring: str, diag, *, spec: FieldSpec = None, prec: int = None,
                 wctx: WittCtx = None) -> "Mat":
        n = len(diag)
        if ring == LAURENT:
            zero = LaurentElt.zero(spec, prec)
        elif ring == WITTFRAC:
            zero = WittFraction.zero(wctx)
        else:
            zero = spec.zero()
        return Mat(ring, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "Mat") -> None:
        if other.ring != self.ring or other.n != self.n:
            raise SpecMismatch("matrix size or ring mismatch")

    def __mul__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = self.rows[i]
            orow = []
            for j in range(n):
                col = cols[j]
                acc = row[0] * col[0]
                for k in range(1, n):
                    acc = acc + row[k] * col[k]
                orow.append(acc)
            out.append(orow)
        return Mat(self.ring, out)

    def __add__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.ring, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.ring, [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self) -> "Mat":
        return Mat(self.ring, [[-a for a in r] for r in self.rows])

    # -- entry inspection --------------------------------------------------------

    def _val(self, x):
        if self.ring == FQ:
            return None if x.is_zero() else 0
        return x.valuation()

    def _val_bound(self, x) -> int:
        """Lower bound on the valuation of a zero-within-window entry."""
        if self.ring == FQ:
            return _INF
        if self.ring == LAURENT:
            return x.prec
        return x.known

    def min_precision(self):
        if self.ring == FQ:
            return None
        if self.ring == LAURENT:
            return min(x.prec for r in self.rows for x in r)
        return min(x.known for r in self.rows for x in r)

    def is_integral(self) -> bool:
        return all(x.is_integral() for r in self.rows for x in r)

    def reduce(self) -> "Mat":
        """Entrywise reduction modulo the uniformizer, as an F_q matrix."""
        if self.ring == FQ:
            return self
        if self.ring == LAURENT:
            return Mat(FQ, [[x.reduce_mod_t() for x in r] for r in self.rows])
        return Mat(FQ, [[x.reduce_mod_p() for x in r] for r in self.rows])

    def congruent_mod(self, other: "Mat", k: int) -> bool:
        self._coerce(other)
        if self.ring == FQ:
            return self.rows == other.rows
        return all(
            a.congruent_mod(b, k)
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    # -- inversion --------------------------------------------------------------

    def inverse(self) -> "Mat":
        """Gauss-Jordan with minimal-valuation pivot selection."""
        n = self.n
        spec = field_of(self)
        w = [list(r) for r in self.rows]
        if self.ring == FQ:
            aug = [list(r) for r in Mat.identity(FQ, n, spec=spec).rows]
        elif self.ring == LAURENT:
            prec = self.min_precision()
            aug = [list(r) for r in Mat.identity(LAURENT, n, spec=spec, prec=prec).rows]
        else:
            aug = [list(r) for r in Mat.identity(WITTFRAC, n, wctx=_wctx_of(self)).rows]
        for col in range(n):
            piv = self._select_pivot(w, col, rows=range(col, n), cols=[col])
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
                if self._val(c) is None:
                    continue
                w[r] = [x - c * y for x, y in zip(w[r], w[col])]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
        return Mat(self.ring, aug)

    def _select_pivot(self, w, start, rows, cols):
        """Entry of provably minimal valuation; None if all are zero-in-window."""
        best = None
        best_val = None
        min_bound = _INF
        for i in rows:
            for j in cols:
                v = self._val(w[i][j])
                if v is None:
                    min_bound = min(min_bound, self._val_bound(w[i][j]))
                elif best_val is None or v < best_val:
                    best_val = v
                    best = (i, j)
        if best is None:
            return None
        if min_bound < best_val:
            raise InsufficientPrecision(
                f"entry window ends at valuation {min_bound}, below pivot {best_val}"
            )
        return best

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        if self.ring == FQ:
            spec = field_of(self)
            entries = [[list(x.coeffs) for x in r] for r in self.rows]
            ring = {"tag": FQ, "p": spec.p, "m": spec.m}
        elif self.ring == LAURENT:
            spec = field_of(self)
            entries = [[x.to_json() for x in r] for r in self.rows]
            ring = {"tag": LAURENT, "p": spec.p, "m": spec.m}
        else:
            wctx = _wctx_of(self)
            entries = [[x.to_json() for x in r] for r in self.rows]
            ring = {"tag": WITTFRAC, "p": wctx.p, "m": wctx.spec.m, "N": wctx.length}
        return {"n": self.n, "ring": ring, "entries": entries}

    @staticmethod
    def from_json(data) -> "Mat":
        """Parse the `to_json` format; malformed input raises ValueError."""
        try:
            ring, n, entries = data["ring"], data["n"], data["entries"]
            tag = ring["tag"]
            spec = FieldSpec.get(ring["p"], ring.get("m", 1))
            wctx = WittCtx.get(spec, ring["N"]) if tag == WITTFRAC else None
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix header: {exc!r}") from exc
        if tag not in (FQ, LAURENT, WITTFRAC):
            raise ValueError(f"unknown ring tag {tag!r}")
        if type(n) is not int or n < 1:
            raise ValueError(f"declared n={n!r} is not a positive integer")
        if not isinstance(entries, list) or len(entries) != n:
            raise ValueError(f"declared n={n!r} does not match the entry rows")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"row {i + 1}: expected {n} entries")
            out = []
            for j, cell in enumerate(row):
                try:
                    if tag == FQ:
                        out.append(spec.from_coeffs(cell))
                    elif tag == LAURENT:
                        out.append(LaurentElt.from_json(spec, cell))
                    else:
                        num = wctx.from_coords([spec.from_coeffs(c) for c in cell["coords"]])
                        out.append(WittFraction(wctx, cell.get("e", 0), num))
                except (KeyError, TypeError, ValueError, InsufficientPrecision) as exc:
                    raise ValueError(f"entry ({i + 1},{j + 1}): {exc}") from exc
            rows.append(out)
        return Mat(tag, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.ring == self.ring
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


def field_of(m: Mat) -> FieldSpec:
    """The residue field F_q of the matrix's ring."""
    x = m.rows[0][0]
    return x.spec if m.ring != WITTFRAC else x.ctx.spec


def _wctx_of(m: Mat) -> WittCtx:
    return m.rows[0][0].ctx


# -- flat F_q matrices: int-code tuples for the enumeration engines ------------


def mat_encode(m: Mat) -> tuple:
    return tuple(x.code for r in m.rows for x in r)


def flat_residue(m: Mat) -> tuple:
    """Flat codes of the reduction of an integral Laurent or Witt matrix."""
    return tuple(x.residue_code() for r in m.rows for x in r)


def mat_decode(spec: FieldSpec, n: int, flat) -> Mat:
    return Mat(FQ, [
        [spec.element(flat[i * n + j]) for j in range(n)] for i in range(n)
    ])


def flat_identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def flat_mul(spec: FieldSpec, n: int, a, b) -> tuple:
    mul, add = spec.mul_table, spec.add_table
    out = []
    for i in range(n):
        base = i * n
        for j in range(n):
            acc = 0
            for k in range(n):
                av = a[base + k]
                if av:
                    acc = add[acc][mul[av][b[k * n + j]]]
            out.append(acc)
    return tuple(out)


def flat_frobenius(spec: FieldSpec, flat, times: int = 1) -> tuple:
    table = spec.frob_table if times >= 0 else spec.frob_inv_table
    out = flat
    for _ in range(abs(times)):
        out = tuple(table[c] for c in out)
    return out


def flat_det(spec: FieldSpec, n: int, a) -> int:
    mul, add, neg = spec.mul_table, spec.add_table, spec.neg_table
    if n == 1:
        return a[0]
    if n == 2:
        return add[mul[a[0]][a[3]]][neg[mul[a[1]][a[2]]]]
    if n == 3:
        t1 = mul[a[0]][add[mul[a[4]][a[8]]][neg[mul[a[5]][a[7]]]]]
        t2 = mul[a[1]][add[mul[a[3]][a[8]]][neg[mul[a[5]][a[6]]]]]
        t3 = mul[a[2]][add[mul[a[3]][a[7]]][neg[mul[a[4]][a[6]]]]]
        return add[add[t1][neg[t2]]][t3]
    raise ValueError("flat determinant supports n <= 3")


def flat_inverse(spec: FieldSpec, n: int, a) -> tuple:
    """Gauss-Jordan on codes over the field tables; NotInvertible if singular."""
    mul, add, neg, inv = spec.mul_table, spec.add_table, spec.neg_table, spec.inv_table
    w = [list(a[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if w[r][col]), None)
        if piv is None:
            raise NotInvertible(f"no usable pivot in column {col}")
        w[col], w[piv] = w[piv], w[col]
        scale = mul[inv[w[col][col]]]
        w[col] = [scale[x] for x in w[col]]
        for r in range(n):
            c = w[r][col]
            if r != col and c:
                by_c = mul[neg[c]]
                w[r] = [add[x][by_c[y]] for x, y in zip(w[r], w[col])]
    return tuple(x for r in w for x in r[n:])


# -- diagonal decomposition over a DVR ------------------------------------------


def snf_dvr(x: Mat):
    """Decompose x = a * diag(pi^d) * b with a, b integral of unit reduction.

    Pivoting is deterministic: among entries of provably minimal valuation
    take the smallest row index, then column index.  d is returned sorted
    non-increasing, conjugating a and b by the sorting permutation.
    """
    if x.ring == FQ:
        raise ValueError("decomposition requires a Laurent or Witt matrix")
    n = x.n
    w = [list(r) for r in x.rows]
    if x.ring == LAURENT:
        spec = field_of(x)
        prec = x.min_precision()
        ident = Mat.identity(LAURENT, n, spec=spec, prec=prec)
    else:
        ident = Mat.identity(WITTFRAC, n, wctx=_wctx_of(x))
    a = [list(r) for r in ident.rows]
    b = [list(r) for r in ident.rows]
    d = [0] * n

    for k in range(n):
        piv = x._select_pivot(w, k, rows=range(k, n), cols=range(k, n))
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
        v = x._val(w[k][k])
        d[k] = v
        unit = w[k][k].shifted(-v)
        uinv = unit.inverse()
        # scale the pivot row to pi^v; a picks up the unit on its column
        w[k] = [uinv * c for c in w[k]]
        for r in range(n):
            a[r][k] = a[r][k] * unit
        # pivot row is now normalized to pi^v, so quotients are plain shifts
        for i in range(n):
            if i == k or x._val(w[i][k]) is None:
                continue
            c = w[i][k].shifted(-v)
            w[i] = [p - c * q for p, q in zip(w[i], w[k])]
            for r in range(n):
                a[r][k] = a[r][k] + a[r][i] * c
        for j in range(n):
            if j == k or x._val(w[k][j]) is None:
                continue
            c = w[k][j].shifted(-v)
            for r in range(n):
                w[r][j] = w[r][j] - w[r][k] * c
            b[k] = [p + c * q for p, q in zip(b[k], b[j])]

    # sort d non-increasing, stably, and conjugate by the permutation
    order = sorted(range(n), key=lambda i: (-d[i], i))
    d_sorted = tuple(d[i] for i in order)
    a_sorted = [[a[r][order[c]] for c in range(n)] for r in range(n)]
    b_sorted = [b[order[r]] for r in range(n)]
    return Mat(x.ring, a_sorted), d_sorted, Mat(x.ring, b_sorted)


def cartan_precision_floor(weights) -> int:
    """Minimal safe Laurent working precision for the given weight vector."""
    dmax, dmin = max(weights), min(weights)
    return max(2 * (dmax - dmin) + 2, 2 * max(abs(dmax), abs(dmin)) + 1)


def assert_cartan_precision(weights, prec: int) -> None:
    floor = cartan_precision_floor(weights)
    if prec < floor:
        raise InsufficientPrecision(
            f"precision {prec} below safe floor {floor} for weights {tuple(weights)}"
        )
