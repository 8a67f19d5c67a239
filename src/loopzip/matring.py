"""Square matrices over truncated Laurent series or Witt fractions.

Both entry types answer one small protocol, and `Mat` is written once
against it:
  spec               the residue field;
  valuation()        leading exponent, or None when zero within the window;
  prec               the window: the entry is known modulo pi^prec;
  residue_code()     field code of the reduction of an integral entry;
  shifted(k)         multiplication by pi^k;
  sub_mul(c, y)      x - c * y, stored as the product and the difference store it;
  dot(xs, ys)        the sum of the x_k * y_k, stored as the running sum of the
                     products stores it;
  inverse()          inverse of an entry of provable valuation;
  zero_at(prec), one_at(prec)  the ring's constants at a given window;
  from_codes(codes)  the integral element with expansion coordinates `codes`
                     (t-adic coefficients, or Witt coordinates) at the
                     window of x; a Witt element, like the Witt constants,
                     is exact to the full length.
On it rest Gaussian inversion with valuation-aware pivoting and the
diagonal decomposition x = a * diag(pi^d) * b over the two discrete
valuation rings (pi = t or p), which yields d and the reductions of a and
b, the integral factors of unit reduction.  Both compute only the entries
they read again, one loop for either ring.
F_q elements are int codes throughout: F_q matrices of any size are flat
row-major tuples of them, which one Gauss-Jordan loop inverts, tests and puts
in `coset`'s canonical form.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InsufficientPrecision, NotInvertible, SpecMismatch
from .gf import FieldSpec

_INF = 10**9


class Mat:
    """Immutable square matrix of Laurent series or of Witt fractions."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int, one) -> "Mat":
        """The n x n identity in the ring of `one`, at the window of `one`."""
        zero = one.zero_at(one.prec)
        return Mat([[one if i == j else zero for j in range(n)] for i in range(n)])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "Mat") -> None:
        if other.n != self.n or type(other.rows[0][0]) is not type(self.rows[0][0]):
            raise SpecMismatch("matrix size or ring mismatch")

    def __mul__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        dot = type(self.rows[0][0]).dot
        cols = list(zip(*other.rows))
        return Mat([[dot(row, col) for col in cols] for row in self.rows])

    # -- entry inspection --------------------------------------------------------

    def min_precision(self) -> int:
        return min(x.prec for r in self.rows for x in r)

    def is_integral(self) -> bool:
        return all(x.is_integral() for r in self.rows for x in r)

    def congruent_mod(self, other: "Mat", k: int) -> bool:
        self._coerce(other)
        return all(
            a.congruent_mod(b, k)
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    # -- inversion --------------------------------------------------------------

    def inverse(self) -> "Mat":
        """Gauss-Jordan with minimal-valuation pivot selection.  The columns
        of w at and left of the pivot are never read again, so each step
        updates only the columns right of it."""
        n = self.n
        w = [list(r) for r in self.rows]
        one = self.rows[0][0].one_at(self.min_precision())
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
            prow = [pinv * x for x in w[col][col + 1:]]
            w[col][col + 1:] = prow
            aug[col] = [pinv * x for x in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                c = w[r][col]
                if c.valuation() is None:
                    continue
                w[r][col + 1:] = [x.sub_mul(c, y) for x, y in zip(w[r][col + 1:], prow)]
                aug[r] = [x.sub_mul(c, y) for x, y in zip(aug[r], aug[col])]
        return Mat(aug)

    def __eq__(self, other):
        return type(other) is Mat and other.rows == self.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


def _select_pivot(w, rows, cols):
    """Entry of provably minimal valuation; None if all are zero-in-window."""
    best = None
    best_val = None
    min_bound = _INF
    for i in rows:
        for j in cols:
            v = w[i][j].valuation()
            if v is None:
                min_bound = min(min_bound, w[i][j].prec)
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


# -- flat F_q matrices: int-code tuples for the enumeration engines ------------


def flat_residue(m: Mat) -> tuple:
    """Flat codes of the reduction of an integral Laurent or Witt matrix."""
    return tuple(x.residue_code() for r in m.rows for x in r)


@lru_cache(maxsize=None)
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


def flat_frobenius(spec: FieldSpec, flat, k: int) -> tuple:
    table = spec.frob_powers[k % spec.m]
    return tuple(table[c] for c in flat)


def gauss_jordan(spec: FieldSpec, n: int, a, b, block_of) -> tuple:
    """Gauss-Jordan on the rows of the flat n x n matrix a, without row swaps:
    each column's pivot, the first row not yet a pivot that is nonzero there,
    is scaled to 1 and clears the column from the rows of its block and of
    the later blocks (block_of, nondecreasing); the rows of the flat b, or of
    () for none, take the same operations inside the pivot's block only, so
    one block is Gauss-Jordan on [a | b].  Returns the pivot row of each
    column up to the first column without one, and the rows of a and of b."""
    mul, add, neg, inv = spec.mul_table, spec.add_table, spec.neg_table, spec.inv_table
    rows = range(n)
    w, x = [a[i * n:(i + 1) * n] for i in rows], [b[i * n:(i + 1) * n] for i in rows]
    order: list = []
    for col in rows:
        for r in rows:
            if w[r][col] and r not in order:
                break
        else:
            return order, w, x
        order.append(r)
        scale = mul[inv[w[r][col]]]
        pw = w[r] = [scale[v] for v in w[r]]
        px = x[r] = [scale[v] for v in x[r]]
        for i in rows:
            if w[i][col] and i != r and block_of[i] >= block_of[r]:
                by_c = mul[neg[w[i][col]]]
                w[i] = [add[u][by_c[v]] for u, v in zip(w[i], pw)]
                if block_of[i] == block_of[r]:
                    x[i] = [add[u][by_c[v]] for u, v in zip(x[i], px)]
    return order, w, x


def flat_invertible(spec: FieldSpec, n: int, a) -> bool:
    return len(gauss_jordan(spec, n, a, (), (0,) * n)[0]) == n


def flat_inverse(spec: FieldSpec, n: int, a) -> tuple:
    """Gauss-Jordan on [a | I]; NotInvertible if a is singular."""
    order, _, x = gauss_jordan(spec, n, a, flat_identity(n), (0,) * n)
    if len(order) < n:
        raise NotInvertible(f"no usable pivot in column {len(order)}")
    return tuple(c for r in order for c in x[r])


# -- diagonal decomposition over a DVR ------------------------------------------


def snf_residues(x: Mat):
    """(abar, d, bbar): the decomposition x = a * diag(pi^d) * b, a and b
    integral of unit reduction, with a and b as flat codes of their reductions.

    Pivoting is deterministic: among entries of provably minimal valuation
    take the smallest row index, then column index.  d is returned sorted
    non-increasing, conjugating a and b by the sorting permutation.  Every
    update of a and b multiplies by an integral element (a unit, or an entry
    divided by the pivot of least valuation), and reduction mod pi commutes
    with integral row and column operations (Serre, Local Fields, II), so a
    and b are carried mod pi from the start.  d, a and b read only the pivot
    and the trailing submatrix of w, so step k scales the pivot row and
    clears column k on columns >= k (the zeros left in column k cut the
    windows they meet), clears row k on rows > k, and at the last step
    neither inverts nor scales.
    """
    n = x.n
    w = [list(r) for r in x.rows]
    # a window below 1 leaves an entry with no residue: one_at raises there
    one = x.rows[0][0].one_at(x.min_precision())
    mul, add = one.spec.mul_table, one.spec.add_table
    # a row-major and b column-major: a's column k and b's row k are [k::n]
    a = list(flat_identity(n))
    b = list(flat_identity(n))
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
            a[k::n], a[pi::n] = a[pi::n], a[k::n]
        if pj != k:
            for r in range(n):
                w[r][k], w[r][pj] = w[r][pj], w[r][k]
            b[k::n], b[pj::n] = b[pj::n], b[k::n]
        v = w[k][k].valuation()
        d[k] = v
        unit = w[k][k].shifted(-v)
        rest = range(k + 1, n)
        if rest:  # scale the pivot row to pi^v
            uinv = unit.inverse()
            w[k][k:] = [uinv * c for c in w[k][k:]]
        # a picks up the unit on its column
        by_u = mul[unit.residue_code()]
        a[k::n] = [by_u[c] for c in a[k::n]]
        # pivot row is now normalized to pi^v, so quotients are plain shifts
        for i in rest:
            if w[i][k].valuation() is None:
                continue
            c = w[i][k].shifted(-v)
            w[i][k:] = [p.sub_mul(c, q) for p, q in zip(w[i][k:], w[k][k:])]
            by_c = mul[c.residue_code()]
            a[k::n] = [add[p][by_c[q]] for p, q in zip(a[k::n], a[i::n])]
        for j in rest:
            if w[k][j].valuation() is None:
                continue
            c = w[k][j].shifted(-v)
            for r in rest:
                w[r][j] = w[r][j].sub_mul(w[r][k], c)
            by_c = mul[c.residue_code()]
            b[k::n] = [add[p][by_c[q]] for p, q in zip(b[k::n], b[j::n])]

    # sort d non-increasing, stably, and conjugate by the permutation
    order = sorted(range(n), key=lambda i: (-d[i], i))
    abar = tuple(a[r + c] for r in range(0, n * n, n) for c in order)
    return abar, tuple(d[i] for i in order), tuple(c for i in order for c in b[i::n])

