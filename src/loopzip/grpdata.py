"""Cocharacter data for GL_n and the subgroup apparatus it induces.

A cocharacter is a non-increasing integer weight vector d defining the
block structure of the parabolic pair P+/P-, their unipotent radicals,
the common Levi M, the depth-one kernel of reduction, and the four zip
groups used by the orbit engines.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .errors import BudgetExceeded, InsufficientPrecision, NotInParabolic
from .gf import FieldSpec
from .matring import (
    Mat,
    flat_det,
    flat_frobenius,
    flat_identity,
    flat_mul,
    flat_residue,
)
from .series import LaurentElt

_ENUM_CAP = 600_000  # candidate matrices scanned by an exhaustive enumeration


class SubgroupTag(Enum):
    Pplus = "Pplus"
    Pminus = "Pminus"
    Uplus = "Uplus"
    Uminus = "Uminus"
    M = "M"
    K1 = "K1"
    Hplus = "Hplus"
    Hminus = "Hminus"
    leftH = "leftH"
    rightH = "rightH"
    ZipNormal = "ZipNormal"
    ZipFrobenius = "ZipFrobenius"
    ZipLoop = "ZipLoop"
    ZipPro = "ZipPro"


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


def mu_matrix(mu: Cocharacter, one) -> Mat:
    """diag(pi^{d_1}, ..., pi^{d_n}) in the ring of `one`, at its window."""
    prec = one.prec
    if prec <= max(mu.weights):
        raise InsufficientPrecision(f"window {prec} cannot represent pi^{max(mu.weights)}")
    # pi^d = pi^d * 1 with the 1 known to prec - d, so pi^d is known to prec
    return Mat.diagonal([one.one_at(prec - d).shifted(d) for d in mu.weights])


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


def levi_component(p, mu: Cocharacter) -> tuple:
    """Block-diagonal part of a flat element of P+ or P-."""
    if not (_block_member(p, SubgroupTag.Pplus, mu) or _block_member(p, SubgroupTag.Pminus, mu)):
        raise NotInParabolic("matrix lies in neither parabolic")
    b, n = mu.block_of, mu.n
    return tuple(
        p[i * n + j] if b[i] == b[j] else 0 for i in range(n) for j in range(n)
    )


def is_member(g, tag: SubgroupTag, mu: Cocharacter, tau_power: int = 0,
              spec: FieldSpec = None) -> bool:
    """Membership predicates for the subgroups attached to mu.

    F_q-level tags take a flat matrix of field codes (a pair for the zip
    tags; ZipFrobenius also needs the field `spec`); loop-level tags take
    truncated Laurent matrices.
    """
    if tag in (SubgroupTag.Pplus, SubgroupTag.Pminus, SubgroupTag.Uplus,
               SubgroupTag.Uminus, SubgroupTag.M):
        return _block_member(g, tag, mu)
    if tag == SubgroupTag.K1:
        return g.is_integral() and flat_residue(g) == flat_identity(g.n)
    if tag == SubgroupTag.Hplus:
        return g.is_integral() and _block_member(flat_residue(g), SubgroupTag.Pplus, mu)
    if tag == SubgroupTag.Hminus:
        return g.is_integral() and _block_member(flat_residue(g), SubgroupTag.Pminus, mu)
    if tag == SubgroupTag.leftH:
        return g.is_integral() and conj_by_mu(g, mu, -1).is_integral()
    if tag == SubgroupTag.rightH:
        return g.is_integral() and conj_by_mu(g, mu, +1).is_integral()
    if tag in (SubgroupTag.ZipNormal, SubgroupTag.ZipFrobenius):
        pm, pp = g
        if not (_block_member(pm, SubgroupTag.Pminus, mu)
                and _block_member(pp, SubgroupTag.Pplus, mu)):
            return False
        levi = levi_component(pp, mu)
        if tag == SubgroupTag.ZipFrobenius:
            if spec is None:
                raise ValueError("ZipFrobenius membership needs the field spec")
            levi = flat_frobenius(spec, levi, tau_power)
        return levi_component(pm, mu) == levi
    if tag == SubgroupTag.ZipLoop:
        hm, hp = g
        if not (is_member(hm, SubgroupTag.Hminus, mu) and
                is_member(hp, SubgroupTag.Hplus, mu)):
            return False
        return levi_component(flat_residue(hm), mu) == levi_component(flat_residue(hp), mu)
    if tag == SubgroupTag.ZipPro:
        hm, hp = g
        if not (is_member(hp, SubgroupTag.leftH, mu) and
                is_member(hm, SubgroupTag.rightH, mu)):
            return False
        conj = conj_by_mu(hp, mu, -1)
        k = min(hm.min_precision(), conj.min_precision())
        return hm.congruent_mod(conj, k)
    raise ValueError(f"unknown tag {tag}")


def _block_member(g, tag: SubgroupTag, mu: Cocharacter) -> bool:
    """Block shape of a flat F_q matrix; U_+ and U_- also need identity blocks."""
    b = mu.block_of
    n = mu.n
    for i in range(n):
        for j in range(n):
            x = g[i * n + j]
            if tag in (SubgroupTag.Pplus, SubgroupTag.Uplus):
                if b[i] > b[j] and x:
                    return False
            if tag in (SubgroupTag.Pminus, SubgroupTag.Uminus):
                if b[i] < b[j] and x:
                    return False
            if tag == SubgroupTag.M and b[i] != b[j] and x:
                return False
            if tag in (SubgroupTag.Uplus, SubgroupTag.Uminus):
                if b[i] == b[j] and x != int(i == j):
                    return False
    return True


# -- exhaustive enumeration (flat encodings) -------------------------------


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def group_order(tag: SubgroupTag, mu: Cocharacter, q: int) -> int:
    upper = sum(
        1 for i in range(mu.n) for j in range(mu.n)
        if mu.block_of[i] < mu.block_of[j]
    )
    m_order = 1
    for _, s in mu.blocks:
        m_order *= gl_order(s, q)
    if tag == SubgroupTag.Uplus or tag == SubgroupTag.Uminus:
        return q**upper
    if tag == SubgroupTag.M:
        return m_order
    if tag in (SubgroupTag.Pplus, SubgroupTag.Pminus):
        return q**upper * m_order
    if tag in (SubgroupTag.ZipNormal, SubgroupTag.ZipFrobenius):
        return q**upper * m_order * q**upper
    raise ValueError(f"no finite order for {tag}")


def _budget_check(engine: str, spec: FieldSpec, n: int, candidates: int) -> None:
    if n > 3 or spec.q > 9 or candidates > _ENUM_CAP:
        raise BudgetExceeded(
            f"{engine} enumeration at n={n}, q={spec.q} scans {candidates:,} candidates;"
            f" the caps are n <= 3, q <= 9 and {_ENUM_CAP:,} candidates"
        )


_GL_CACHE: dict = {}


def enumerate_gl_flat(spec: FieldSpec, n: int) -> tuple:
    """All invertible n x n matrices over F_q, encoded, in lexicographic order."""
    key = (spec.p, spec.m, n)
    if key not in _GL_CACHE:
        _budget_check(f"GL_{n}", spec, n, spec.q ** (n * n))
        out = tuple(
            flat for flat in itertools.product(range(spec.q), repeat=n * n)
            if flat_det(spec, n, flat) != 0
        )
        if len(out) != gl_order(n, spec.q):
            raise AssertionError(
                f"enumerated {len(out)} matrices, |GL_{n}(F_{spec.q})| = {gl_order(n, spec.q)}"
            )
        _GL_CACHE[key] = out
    return _GL_CACHE[key]


def block_positions(mu: Cocharacter, sign: int) -> list:
    """Free entries of U_+ (sign=+1), row-major, or their transposes for U_- (sign=-1)."""
    b = mu.block_of
    upper = [(i, j) for i in range(mu.n) for j in range(mu.n) if b[i] < b[j]]
    return upper if sign > 0 else [(j, i) for i, j in upper]


def enumerate_unipotent_flat(spec: FieldSpec, mu: Cocharacter, sign: int) -> list:
    """U_+ (sign=+1) or U_- (sign=-1) as flat matrices."""
    n = mu.n
    positions = block_positions(mu, sign)
    _budget_check("unipotent U_+" if sign > 0 else "unipotent U_-", spec, n,
                  spec.q ** len(positions))
    out = []
    base = list(flat_identity(n))
    for vals in itertools.product(range(spec.q), repeat=len(positions)):
        flat = base[:]
        for (i, j), c in zip(positions, vals):
            flat[i * n + j] = c
        out.append(tuple(flat))
    return out


def enumerate_levi_flat(spec: FieldSpec, mu: Cocharacter) -> list:
    """The common Levi M: block-diagonal matrices with invertible blocks."""
    n = mu.n
    offs = []
    pos = 0
    for _, s in mu.blocks:
        offs.append((pos, s))
        pos += s
    per_block = [enumerate_gl_flat(spec, s) for _, s in offs]
    out = []
    for combo in itertools.product(*per_block):
        flat = [0] * (n * n)
        for (start, s), blk in zip(offs, combo):
            for i in range(s):
                for j in range(s):
                    flat[(start + i) * n + (start + j)] = blk[i * s + j]
        out.append(tuple(flat))
    return out


def enumerate_parabolic_flat(spec: FieldSpec, mu: Cocharacter, sign: int) -> list:
    """P_+ (sign=+1) or P_- (sign=-1) as pairs (u m, m): each element with its Levi part."""
    n = mu.n
    levi = enumerate_levi_flat(spec, mu)
    return [
        (flat_mul(spec, n, u, m), m)
        for u in enumerate_unipotent_flat(spec, mu, sign)
        for m in levi
    ]


def enumerate_zip_pairs_flat(spec: FieldSpec, mu: Cocharacter, *,
                             frobenius: bool = False, tau_power: int = 0) -> list:
    """Zip group as pairs (p_-, p_+) = (u_- m', u_+ m), m' = tau(m) if twisted."""
    n = mu.n
    ups = enumerate_unipotent_flat(spec, mu, +1)
    downs = enumerate_unipotent_flat(spec, mu, -1)
    ms = enumerate_levi_flat(spec, mu)
    out = []
    for m in ms:
        mt = flat_frobenius(spec, m, tau_power) if frobenius else m
        for um in downs:
            pm = flat_mul(spec, n, um, mt)
            for up in ups:
                out.append((pm, flat_mul(spec, n, up, m)))
    return out


# -- generator sets for the orbit engines ------------------------------------------


def transvection_generators(spec: FieldSpec, n: int) -> list:
    """I + c E_ij over all off-diagonal positions and nonzero c; generates SL_n."""
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in range(1, spec.q):
                flat = list(flat_identity(n))
                flat[i * n + j] = c
                out.append(tuple(flat))
    return out


def gl_generators(spec: FieldSpec, n: int) -> list:
    """Transvections plus diagonal matrices; generates GL_n(F_q)."""
    out = transvection_generators(spec, n)
    for diag in itertools.product(range(1, spec.q), repeat=n):
        if all(c == 1 for c in diag):
            continue
        flat = [0] * (n * n)
        for i, c in enumerate(diag):
            flat[i * n + i] = c
        out.append(tuple(flat))
    return out


def zip_pair_generators(spec: FieldSpec, mu: Cocharacter, *,
                        frobenius: bool = False, tau_power: int = 0) -> list:
    """Pairs generating the zip group: one-sided unipotents and Levi diagonal."""
    n = mu.n
    ident = flat_identity(n)
    gens = []
    for u in enumerate_unipotent_flat(spec, mu, -1):
        if u != ident:
            gens.append((u, ident))
    for u in enumerate_unipotent_flat(spec, mu, +1):
        if u != ident:
            gens.append((ident, u))
    for m in enumerate_levi_flat(spec, mu):
        if m != ident:
            mt = flat_frobenius(spec, m, tau_power) if frobenius else m
            gens.append((mt, m))
    return gens


# -- random loop-group elements (for sampled suites) --------------------------------


def random_laurent(spec: FieldSpec, rng, v: int, prec: int) -> LaurentElt:
    return LaurentElt(spec, v, prec, [rng.randrange(spec.q) for _ in range(prec - v)])


def random_integral_mat(spec: FieldSpec, n: int, prec: int, rng,
                        unit: bool = True) -> Mat:
    """Random element of the integral loop group at the given precision."""
    while True:
        rows = [[random_laurent(spec, rng, 0, prec) for _ in range(n)] for _ in range(n)]
        m = Mat(rows)
        if not unit or flat_det(spec, n, flat_residue(m)) != 0:
            return m


def random_k1_mat(one, n: int, rng) -> Mat:
    """Random depth-one kernel element in the ring of `one`: the identity plus
    entries of zero residue whose one.prec - 1 higher coordinates are drawn."""
    q = one.spec.q
    rows = [
        [one.from_codes([0] + [rng.randrange(q) for _ in range(one.prec - 1)])
         for _ in range(n)]
        for _ in range(n)
    ]
    return Mat.identity(n, one) + Mat(rows)


def random_left_h_mat(spec: FieldSpec, mu: Cocharacter, prec: int, rng) -> Mat:
    """Random element of L+G intersected with mu(t)^(-1) L+G mu(t).

    Built as mu(t)^(-1) k mu(t) for k integral with upper blocks divisible
    by t^(d_i - d_j); the reduction of k is then block lower triangular, so
    we resample until its diagonal blocks are invertible.
    """
    n = mu.n
    d = mu.weights
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                gap = d[i] - d[j]
                row.append(random_laurent(spec, rng, max(gap, 0), prec))
            rows.append(row)
        k = Mat(rows)
        if flat_det(spec, n, flat_residue(k)) == 0:
            continue
        g = conj_by_mu(k, mu, +1)
        if not g.is_integral():
            raise AssertionError("mu-conjugate of a block-divisible matrix is not integral")
        return g

