"""Cocharacter data for GL_n and the subgroups it cuts out.

A cocharacter is a non-increasing integer weight vector d. Its blocks
give, over F_q, the parabolic pair P_+/P_-, their unipotent radicals U_+/U_-
and the common Levi M, as flat code tuples: GL_n enumerated, uniform draws
from GL_n, U_+/U_- and M, and small generating sets of GL_n and of the zip groups
for the orbit engines; and, in the loop group, the depth-one kernel K_1,
the integral groups H_+/H_- (integral, reducing into P_+ or P_-) and the
loop zip group. Each subgroup that a suite tests has its own membership
predicate (`in_parabolic`, `in_k1`, `in_h`, `in_conj_integral`,
`in_zip_loop`). Every element of U_+/U_-(R), P_+/P_-(R) (R = F_q[t]/t^N)
and K_1 that a check uses is built here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InsufficientPrecision, NotInParabolic, check_budget
from .gf import FieldSpec
from .matring import (
    Mat,
    flat_frobenius,
    flat_identity,
    flat_invertible,
    flat_residue,
)
from .series import LaurentElt, _raw

_ENUM_CAP = 600_000  # matrices listed by the GL_n enumeration
CLASS_CAP = 33_000  # points the class pipeline classifies: census classes, mixed-census pairs


class Cocharacter:
    """Dominant weight vector for GL_n with its derived block data."""

    __slots__ = ("n", "weights", "blocks", "block_of", "type_J")

    def __init__(self, weights):
        weights = tuple(int(d) for d in weights)
        if not weights:
            raise ValueError("empty weight vector")
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise ValueError(f"weights must be non-increasing, got {weights}")
        self.n = len(weights)
        self.weights = weights
        blocks = []
        for d in weights:
            if blocks and blocks[-1][0] == d:
                blocks[-1][1] += 1
            else:
                blocks.append([d, 1])
        self.blocks = tuple((d, s) for d, s in blocks)
        block_of = []
        for bi, (_, s) in enumerate(self.blocks):
            block_of.extend([bi] * s)
        self.block_of = tuple(block_of)
        self.type_J = frozenset(
            i + 1 for i in range(self.n - 1) if weights[i] == weights[i + 1]
        )

    def scaled(self, k: int) -> "Cocharacter":
        if k < 1:
            raise ValueError("scale factor must be >= 1")
        return Cocharacter(tuple(k * d for d in self.weights))

    def is_minuscule(self) -> bool:
        return max(self.weights) - min(self.weights) <= 1

    def __eq__(self, other):
        return isinstance(other, Cocharacter) and other.weights == self.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"Cocharacter{self.weights}"


def check_mu_window(mu: Cocharacter, one) -> None:
    """Raise what diag(pi^(d_j)) raises at the window of `one`, building nothing."""
    prec = one.prec
    if prec <= max(mu.weights):
        raise InsufficientPrecision(f"window {prec} cannot represent pi^{max(mu.weights)}")
    # a Witt fraction p^d with d <= -N has no known digit at length N
    short = [] if isinstance(one, LaurentElt) else [d for d in mu.weights if d <= -one.ctx.length]
    if short:
        raise InsufficientPrecision(
            f"denominator p^{-short[0]} leaves no precision at length {one.ctx.length}")


def conj_by_mu(g: Mat, mu: Cocharacter, sign: int) -> Mat:
    """Entrywise uniformizer shift: block (i,j) scaled by pi^(sign*(d_j-d_i)).

    sign=+1 computes mu(t)^(-1) g mu(t); sign=-1 the reverse conjugation.
    """
    d = mu.weights
    rows = []
    for i in range(mu.n):
        rows.append([
            g.rows[i][j].shifted(sign * (d[j] - d[i])) for j in range(mu.n)
        ])
    return Mat(rows)


def times_mu(x: Mat, mu: Cocharacter, prec: int) -> Mat:
    """x * mu(t) for a Laurent matrix x and mu(t) = diag(t^(d_j)) at a window
    prec >= 1, stored as the matrix product stores it: entry (i, j) is x_ij
    shifted by d_j, on a window that the min-rule of each product
    x_ik mu(t)_kj ends by prec plus the valuation of x_ik (its window end
    when it is zero), and that starts no later than each x_ik, k != j, does."""
    d, spec = mu.weights, x.rows[0][0].spec
    if any(y.v == y.prec for r in x.rows for y in r):
        raise InsufficientPrecision("multiplication of an empty window")
    rows = []
    for row in x.rows:
        cap = prec + min(y.prec if y.valuation() is None else y.valuation() for y in row)
        out = []
        for j, (y, dj) in enumerate(zip(row, d)):
            top = min(y.prec + dj, cap)
            v = min(y.v + dj, top, *(z.v for k, z in enumerate(row) if k != j))
            out.append(_raw(spec, v, top, y._window(v - dj, top - dj)))
        rows.append(out)
    return Mat(rows)


def in_parabolic(flat, mu: Cocharacter, sign: int) -> bool:
    """A flat F_q matrix lies in P_+ (sign=+1, block upper triangular) or
    P_- (sign=-1, block lower triangular)."""
    b, n = mu.block_of, mu.n
    return not any(
        flat[i * n + j] for i in range(n) for j in range(n) if sign * (b[i] - b[j]) > 0
    )


def levi_component(p, mu: Cocharacter) -> tuple:
    """Block-diagonal part of a flat element of P+ or P-."""
    if not (in_parabolic(p, mu, +1) or in_parabolic(p, mu, -1)):
        raise NotInParabolic("matrix lies in neither parabolic")
    b, n = mu.block_of, mu.n
    return tuple(
        p[i * n + j] if b[i] == b[j] else 0 for i in range(n) for j in range(n)
    )


# -- loop-level subgroups (truncated Laurent matrices) ----------------------------


def in_k1(g: Mat) -> bool:
    """The depth-one kernel K_1: integral with identity reduction."""
    return g.is_integral() and flat_residue(g) == flat_identity(g.n)


def in_h(g: Mat, mu: Cocharacter, sign: int) -> bool:
    """H_+ (sign=+1) or H_-: integral with reduction in P_+ or P_-."""
    return g.is_integral() and in_parabolic(flat_residue(g), mu, sign)


def in_conj_integral(g: Mat, mu: Cocharacter, sign: int) -> bool:
    """Integral with integral conj_by_mu(g, mu, sign): L+G meets
    mu(t)^(-1) L+G mu(t) for sign=-1, and mu(t) L+G mu(t)^(-1) for sign=+1."""
    return g.is_integral() and conj_by_mu(g, mu, sign).is_integral()


def in_zip_loop(hm: Mat, hp: Mat, mu: Cocharacter) -> bool:
    """(h_-, h_+) in H_- x H_+ whose reductions have the same Levi part."""
    if not (in_h(hm, mu, -1) and in_h(hp, mu, +1)):
        return False
    return levi_component(flat_residue(hm), mu) == levi_component(flat_residue(hp), mu)


# -- finite groups over F_q (flat encodings) -------------------------------


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def unipotent_order(mu: Cocharacter, q: int) -> int:
    """|U_+(F_q)| = |U_-(F_q)|."""
    return q ** len(block_positions(mu, +1))


def zip_group_order(mu: Cocharacter, q: int) -> int:
    """|U_-| |M| |U_+| for the zip group of mu over F_q, twisted or not."""
    out = unipotent_order(mu, q) ** 2
    for _, s in mu.blocks:
        out *= gl_order(s, q)
    return out


@lru_cache(maxsize=None)
def enumerate_gl_flat(spec: FieldSpec, n: int) -> tuple:
    """All invertible n x n matrices over F_q, encoded, in lexicographic order:
    row by row, each row running over F_q^n in lex order outside the span of
    the rows above it.

    Cached with the field object in the key, so a dead field's id is never reused."""
    size = gl_order(n, spec.q)
    check_budget(size <= _ENUM_CAP, f"GL_{n} enumeration",
                 f"n={n}, q={spec.q} lists {size:,} matrices", f"{_ENUM_CAP:,} matrices")
    add, mul = spec.add_table, spec.mul_table
    vectors = list(itertools.product(range(spec.q), repeat=n))
    out = []

    def extend(prefix, span):
        # append the matrices that continue the rows `prefix`, whose span is `span`
        last = len(prefix) == n * (n - 1)
        for v in vectors:
            if v in span:
                continue
            if last:
                out.append(prefix + v)
            else:
                extend(prefix + v, {tuple(add[a][mul[c][b]] for a, b in zip(s, v))
                                    for s in span for c in range(spec.q)})

    extend((), {(0,) * n})
    return tuple(out)


def random_gl_flat(spec: FieldSpec, n: int, rng) -> tuple:
    """A uniform element of GL_n(F_q), drawn from the cached listing."""
    return rng.choice(enumerate_gl_flat(spec, n))


def block_positions(mu: Cocharacter, sign: int) -> list:
    """Free entries of U_+ (sign=+1), row-major, or their transposes for U_- (sign=-1)."""
    b = mu.block_of
    upper = [(i, j) for i in range(mu.n) for j in range(mu.n) if b[i] < b[j]]
    return upper if sign > 0 else [(j, i) for i, j in upper]


def random_unipotent_flat(spec: FieldSpec, mu: Cocharacter, sign: int, rng) -> tuple:
    """A uniform element of U_+ (sign=+1) or U_- (sign=-1): uniform codes at
    its free entries."""
    n = mu.n
    flat = list(flat_identity(n))
    for i, j in block_positions(mu, sign):
        flat[i * n + j] = rng.randrange(spec.q)
    return tuple(flat)


def random_levi_flat(spec: FieldSpec, mu: Cocharacter, rng) -> tuple:
    """A uniform element of the Levi M: each diagonal block drawn from the
    cached enumeration of its GL_s."""
    n = mu.n
    flat = [0] * (n * n)
    start = 0
    for _, s in mu.blocks:
        block = random_gl_flat(spec, s, rng)
        for i in range(s):
            row = (start + i) * n + start
            flat[row:row + s] = block[i * s:(i + 1) * s]
        start += s
    return tuple(flat)


# -- generator sets for the orbit engines ------------------------------------------


def small_generators(spec: FieldSpec, n: int, positions, starts) -> list:
    """I + c E_ij at each position (i, j) for the F_p-basis codes c = p^k, which
    generate its root subgroup since x_ij(a) x_ij(b) = x_ij(a + b); then
    diag(1, ..., zeta, ..., 1) with zeta primitive at each index of `starts`,
    none at q = 2, where the torus is trivial."""
    cells = [(i, j, spec.p**k) for i, j in positions for k in range(spec.m)]
    if spec.q > 2:
        cells += [(s, s, spec.primitive_code()) for s in starts]
    out = []
    for i, j, c in cells:
        flat = list(flat_identity(n))
        flat[i * n + j] = c
        out.append(tuple(flat))
    return out


def gl_generators(spec: FieldSpec, n: int) -> list:
    """Root elements at every off-diagonal position plus diag(zeta, 1, ..., 1):
    SL_n and a complement of it, so they generate GL_n(F_q) (Steinberg)."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    return small_generators(spec, n, offdiag, [0])


def zip_pair_generators(spec: FieldSpec, mu: Cocharacter, tau_power: int = 0) -> list:
    """Pairs generating the zip group {(u_- tau^tau_power(m), u_+ m)}: the root
    elements of U_- and of U_+, each paired with the identity, and each
    generator m of the Levi M as (tau^tau_power(m), m), where M is generated
    by the root elements inside its blocks and one torus element per block."""
    n, b = mu.n, mu.block_of
    ident = flat_identity(n)
    inside = [(i, j) for i in range(n) for j in range(n) if i != j and b[i] == b[j]]
    starts = [i for i in range(n) if i == 0 or b[i] != b[i - 1]]
    return ([(u, ident) for u in small_generators(spec, n, block_positions(mu, -1), [])]
            + [(ident, u) for u in small_generators(spec, n, block_positions(mu, +1), [])]
            + [(flat_frobenius(spec, m, tau_power), m)
               for m in small_generators(spec, n, inside, starts)])


# -- random loop-group elements (for sampled suites) --------------------------------


def random_laurent(spec: FieldSpec, rng, v: int, prec: int) -> LaurentElt:
    return LaurentElt(spec, v, prec, [rng.randrange(spec.q) for _ in range(prec - v)])


def random_integral_mat(spec: FieldSpec, n: int, prec: int, rng) -> Mat:
    """Random element of the integral loop group at the given precision."""
    while True:
        rows = [[random_laurent(spec, rng, 0, prec) for _ in range(n)] for _ in range(n)]
        m = Mat(rows)
        if flat_invertible(spec, n, flat_residue(m)):
            return m


def all_series_subgroup(spec: FieldSpec, mu: Cocharacter, sign: int, parabolic: bool,
                        prec: int):
    """Every element of U_+(R) (sign=+1) or U_-(R), or of P_+(R) or P_-(R) when
    `parabolic`, for R = F_q[t]/t^prec; the parabolic case needs 1x1 blocks."""
    if parabolic and any(s != 1 for _, s in mu.blocks):
        raise ValueError("exhaustive parabolic enumeration needs 1x1 blocks")
    n = mu.n
    positions = block_positions(mu, sign)
    one = LaurentElt.one(spec, prec)
    polys = [one.from_codes(c) for c in itertools.product(range(spec.q), repeat=prec)]
    units = [x for x in polys if x.residue_code()] if parabolic else [one]
    rows = [list(r) for r in Mat.identity(n, one).rows]
    for diag in itertools.product(units, repeat=n):
        for i in range(n):
            rows[i][i] = diag[i]
        for combo in itertools.product(polys, repeat=len(positions)):
            for (i, j), x in zip(positions, combo):
                rows[i][j] = x
            yield Mat(rows)


def random_series_subgroup(spec: FieldSpec, mu: Cocharacter, sign: int, parabolic: bool,
                           prec: int, rng) -> Mat:
    """One random element of U_+(R) (sign=+1) or U_-(R), or of P_+(R) or P_-(R)
    when `parabolic`, whose Levi blocks are then `random_integral_mat` draws."""
    n = mu.n
    rows = [list(r) for r in Mat.identity(n, LaurentElt.one(spec, prec)).rows]
    if parabolic:
        start = 0
        for _, s in mu.blocks:
            block = random_integral_mat(spec, s, prec, rng)
            for i in range(s):
                rows[start + i][start:start + s] = block.rows[i]
            start += s
    for i, j in block_positions(mu, sign):
        rows[i][j] = random_laurent(spec, rng, 0, prec)
    return Mat(rows)


def random_k1_mat(one, n: int, rng) -> Mat:
    """Random depth-one kernel element in the ring of `one`: entry (i, j) has
    residue delta_ij and its one.prec - 1 higher coordinates drawn, row by row."""
    q = one.spec.q
    return Mat([
        [one.from_codes([int(i == j)] + [rng.randrange(q) for _ in range(one.prec - 1)])
         for j in range(n)]
        for i in range(n)
    ])


def random_left_h_mat(spec: FieldSpec, mu: Cocharacter, prec: int, rng) -> Mat:
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

