"""Canonical forms for double cosets of the depth-one kernel subgroup.

A point of the cell attached to mu is represented by the lexicographically
minimal pair in its zip-group orbit on G(F_q) x G(F_q), under the fixed
total order: row-major entries, field elements by integer code, first
component before second.  The map (g, h) -> g^(-1) mu(t) h identifies
orbits with double cosets; class_of inverts it through the diagonal
decomposition.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import BudgetExceeded, InsufficientPrecision, WrongCell
from .gf import FieldSpec
from .grpdata import (
    Cocharacter,
    conj_by_mu,
    enumerate_gl_flat,
    enumerate_levi_flat,
    enumerate_unipotent_flat,
    gl_order,
    group_order,
    mu_matrix,
    random_integral_mat,
    random_k1_mat,
    random_left_h_mat,
    random_witt_k1_mat,
    SubgroupTag,
)
from .matring import (
    LAURENT,
    WITTFRAC,
    Mat,
    assert_cartan_precision,
    cartan_precision_floor,
    flat_identity,
    flat_mul,
    mat_decode,
    mat_encode,
    snf_dvr,
)
from .series import LaurentElt
from .witt import WittCtx, WittFraction


def default_precision(mu: Cocharacter, floor: int = 6) -> int:
    return max(floor, cartan_precision_floor(mu.weights))


class DoubleCosetClass:
    """Canonical representative of a double-coset point of type mu."""

    __slots__ = ("mu", "spec", "rep")

    def __init__(self, mu: Cocharacter, spec: FieldSpec, rep):
        self.mu = mu
        self.spec = spec
        self.rep = rep  # (g_flat, h_flat), lex-minimal in its orbit

    def __eq__(self, other):
        return (
            isinstance(other, DoubleCosetClass)
            and other.mu.weights == self.mu.weights
            and other.spec is self.spec
            and other.rep == self.rep
        )

    def __hash__(self):
        return hash((self.mu.weights, id(self.spec), self.rep))

    def __repr__(self):
        return f"Class(mu={self.mu.weights}, rep={self.rep})"


@lru_cache(maxsize=None)
def _one_sided_groups(p: int, m: int, mu: Cocharacter) -> tuple:
    """P_- as (element, Levi part) pairs, and U_+, keyed by value."""
    spec = FieldSpec.get(p, m)
    n = mu.n
    levi = enumerate_levi_flat(spec, mu)
    pminus = tuple(
        (flat_mul(spec, n, u, lev), lev)
        for u in enumerate_unipotent_flat(spec, mu, -1)
        for lev in levi
    )
    return pminus, tuple(enumerate_unipotent_flat(spec, mu, +1))


def canonical_flat(spec: FieldSpec, mu: Cocharacter, g_flat, h_flat) -> tuple:
    """Lex-least pair in the zip-group orbit of (g, h).

    The zip group is {(u_- m, u_+ m)}.  Its first components run over P_-,
    which acts freely, so g' = min p g is reached by a unique p; the pairs
    with first component g' then have second components u_+ Levi(p) h.
    """
    n = mu.n
    pminus, uplus = _one_sided_groups(spec.p, spec.m, mu)
    g_min, lev = min((flat_mul(spec, n, p, g_flat), lev) for p, lev in pminus)
    mh = flat_mul(spec, n, lev, h_flat)
    return g_min, min(flat_mul(spec, n, u, mh) for u in uplus)


def canonical_pair(g: Mat, h: Mat, mu: Cocharacter) -> DoubleCosetClass:
    spec = g.rows[0][0].spec
    rep = canonical_flat(spec, mu, mat_encode(g), mat_encode(h))
    return DoubleCosetClass(mu, spec, rep)


# -- the cell map and its inverse -------------------------------------------------


def laurent_lift(m: Mat, prec: int) -> Mat:
    """Constant-coefficient lift of an F_q matrix into the integral loop group."""
    spec = m.rows[0][0].spec
    return Mat(LAURENT, [
        [LaurentElt.const(x, prec) if not x.is_zero() else LaurentElt.zero(spec, prec)
         for x in r]
        for r in m.rows
    ])


def teichmuller_lift(m: Mat, wctx: WittCtx) -> Mat:
    """Entrywise Teichmuller lift of an F_q matrix into Witt fractions."""
    return Mat(WITTFRAC, [
        [WittFraction.integral(wctx.teichmuller(x)) for x in r] for r in m.rows
    ])


def pair_matrix(g: Mat, h: Mat, mu: Cocharacter, prec: int) -> Mat:
    """The truncated Laurent matrix g^(-1) mu(t) h."""
    spec = g.rows[0][0].spec
    mt = mu_matrix(mu, LAURENT, spec=spec, prec=prec)
    return laurent_lift(g.inverse(), prec) * mt * laurent_lift(h, prec)


def witt_pair_matrix(g: Mat, h: Mat, mu: Cocharacter, wctx: WittCtx) -> Mat:
    """Teichmuller-lifted analogue over Witt fractions: g~^(-1) p^mu h~."""
    mt = mu_matrix(mu, WITTFRAC, wctx=wctx)
    return teichmuller_lift(g.inverse(), wctx) * mt * teichmuller_lift(h, wctx)


def class_of(x: Mat, mu: Cocharacter) -> DoubleCosetClass:
    """Canonical class of a Laurent matrix lying in the cell of mu.

    Decomposes x = a mu(t) b, reduces a and b modulo t, and canonicalizes
    the pair (abar^(-1), bbar); replacing a by abar or b by bbar moves x
    only by depth-one kernel factors, which the double coset absorbs.
    """
    if x.ring != LAURENT:
        raise ValueError("class_of expects a Laurent matrix")
    assert_cartan_precision(mu.weights, x.min_precision())
    return _class_of_decomposition(x, mu)


def witt_class_of(x: Mat, mu: Cocharacter) -> DoubleCosetClass:
    """Same pipeline with uniformizer p over Witt fractions."""
    if x.ring != WITTFRAC:
        raise ValueError("witt_class_of expects a Witt-fraction matrix")
    wctx = x.rows[0][0].ctx
    if wctx.p not in (2, 3) or wctx.length < 3:
        raise InsufficientPrecision("mixed pipeline needs p in {2,3} and length >= 3")
    if max(abs(w) for w in mu.weights) > 1:
        raise InsufficientPrecision("mixed pipeline supports weights |d| <= 1")
    return _class_of_decomposition(x, mu)


def _class_of_decomposition(x: Mat, mu: Cocharacter) -> DoubleCosetClass:
    """Shared tail of both pipelines: x = a diag b, class of (abar^(-1), bbar)."""
    a, d, b = snf_dvr(x)
    if tuple(d) != mu.weights:
        raise WrongCell(f"diagonal weights {d} differ from {mu.weights}")
    abar = a.reduce()
    return canonical_pair(abar.inverse(), b.reduce(), mu)


def rescale_class(c: DoubleCosetClass, k: int) -> DoubleCosetClass:
    """Same representative pair, cocharacter k*mu (the zip groups agree)."""
    return DoubleCosetClass(c.mu.scaled(k), c.spec, c.rep)


def embed_before_mu(g: Mat, mu: Cocharacter) -> DoubleCosetClass:
    """Class of g mu(t): the pair (g^(-1), 1)."""
    spec = g.rows[0][0].spec
    ident = mat_decode(spec, mu.n, flat_identity(mu.n))
    return canonical_pair(g.inverse(), ident, mu)

def embed_after_mu(g: Mat, mu: Cocharacter) -> DoubleCosetClass:
    """Class of mu(t) g: the pair (1, g)."""
    spec = g.rows[0][0].spec
    ident = mat_decode(spec, mu.n, flat_identity(mu.n))
    return canonical_pair(ident, g, mu)


# -- verification reports ------------------------------------------------------------


def verify_class_bijection(mu: Cocharacter, spec: FieldSpec, prec: int) -> dict:
    """Exhaustive check that zip orbits on pairs biject with classes."""
    if mu.n > 3 or spec.q > 3:
        raise BudgetExceeded("class bijection census limited to n <= 3, q <= 3")
    census = class_census(mu, spec)
    n = mu.n
    roundtrip = True
    classes = set()
    for rep in census:
        g = mat_decode(spec, n, rep[0])
        h = mat_decode(spec, n, rep[1])
        c = class_of(pair_matrix(g, h, mu, prec), mu)
        classes.add(c.rep)
        if c.rep != rep:
            roundtrip = False
    orbit_count = len(census)
    class_count = len(classes)
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "pair_count": gl_order(n, spec.q) ** 2,
        "orbit_count": orbit_count,
        "class_count": class_count,
        "round_trip": roundtrip,
        "injective": class_count == orbit_count and roundtrip,
        "surjective": classes == set(census),
    }


def class_census(mu: Cocharacter, spec: FieldSpec) -> dict:
    """Canonical class representatives, in order, with their orbit sizes.

    The zip group E acts freely, so every orbit has |E| pairs; fixing the
    first component g' leaves U_+ acting alone on the second, so the
    representatives are all pairs (min of P_- g, min of U_+ h) over g, h in G.
    """
    n = mu.n
    gl = enumerate_gl_flat(spec, n)
    if len(gl) ** 2 > 2_000_000:
        raise BudgetExceeded(f"{len(gl)}^2 pairs exceed the pair budget")
    pminus, uplus = _one_sided_groups(spec.p, spec.m, mu)
    left = sorted({min(flat_mul(spec, n, p, g) for p, _ in pminus) for g in gl})
    right = sorted({min(flat_mul(spec, n, u, h) for u in uplus) for h in gl})
    size = len(pminus) * len(uplus)
    return {(a, b): size for a in left for b in right}


def kernel_invariance_report(mu: Cocharacter, spec: FieldSpec, prec: int,
                             samples: int, seed: int) -> dict:
    """class_of(k1 x k2) = class_of(x) for random depth-one kernel pairs."""
    rng = random.Random(seed)
    gl = enumerate_gl_flat(spec, mu.n)
    n = mu.n
    passed = 0
    for _ in range(samples):
        g = mat_decode(spec, n, gl[rng.randrange(len(gl))])
        h = mat_decode(spec, n, gl[rng.randrange(len(gl))])
        x = pair_matrix(g, h, mu, prec)
        expect = canonical_pair(g, h, mu)
        k1 = random_k1_mat(spec, n, prec, rng)
        k2 = random_k1_mat(spec, n, prec, rng)
        got = class_of(k1 * x * k2, mu)
        passed += got == expect
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "samples": samples,
        "passed_samples": passed,
    }


def embedding_fiber_report(mu: Cocharacter, spec: FieldSpec) -> dict:
    """Fiber sizes of the two closed embeddings on F_q points."""
    n = mu.n
    fibers_a: dict = {}
    fibers_b: dict = {}
    for flat in enumerate_gl_flat(spec, n):
        g = mat_decode(spec, n, flat)
        ca = embed_before_mu(g, mu)
        cb = embed_after_mu(g, mu)
        fibers_a[ca.rep] = fibers_a.get(ca.rep, 0) + 1
        fibers_b[cb.rep] = fibers_b.get(cb.rep, 0) + 1
    u_minus = group_order(SubgroupTag.Uminus, mu, spec.q)
    u_plus = group_order(SubgroupTag.Uplus, mu, spec.q)
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "alpha_fiber_sizes": sorted(set(fibers_a.values())),
        "beta_fiber_sizes": sorted(set(fibers_b.values())),
        "expected_alpha": u_minus,
        "expected_beta": u_plus,
        "alpha_ok": set(fibers_a.values()) == {u_minus},
        "beta_ok": set(fibers_b.values()) == {u_plus},
    }


def witt_census_report(mu: Cocharacter, spec: FieldSpec, length: int,
                       prec: int) -> dict:
    """Mixed-characteristic census compared with the Laurent census."""
    if mu.n > 2 or spec.q > 3:
        raise BudgetExceeded("mixed census limited to n <= 2, q <= 3")
    wctx = WittCtx.get(spec, length)
    n = mu.n
    gl = enumerate_gl_flat(spec, n)
    laurent_classes = set()
    witt_classes = set()
    pointwise = True
    for gf in gl:
        for hf in gl:
            g = mat_decode(spec, n, gf)
            h = mat_decode(spec, n, hf)
            ct = class_of(pair_matrix(g, h, mu, prec), mu)
            cw = witt_class_of(witt_pair_matrix(g, h, mu, wctx), mu)
            laurent_classes.add(ct.rep)
            witt_classes.add(cw.rep)
            if ct.rep != cw.rep:
                pointwise = False
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "witt_length": length,
        "precision": prec,
        "laurent_classes": len(laurent_classes),
        "witt_classes": len(witt_classes),
        "pointwise_equal": pointwise,
        "census_equal": laurent_classes == witt_classes,
    }


def witt_kernel_invariance_report(mu: Cocharacter, spec: FieldSpec, length: int,
                                  samples: int, seed: int) -> dict:
    """witt_class_of is invariant under random Witt depth-one kernel factors."""
    rng = random.Random(seed)
    wctx = WittCtx.get(spec, length)
    gl = enumerate_gl_flat(spec, mu.n)
    n = mu.n
    passed = 0
    for _ in range(samples):
        g = mat_decode(spec, n, gl[rng.randrange(len(gl))])
        h = mat_decode(spec, n, gl[rng.randrange(len(gl))])
        x = witt_pair_matrix(g, h, mu, wctx)
        expect = canonical_pair(g, h, mu)
        k1 = random_witt_k1_mat(wctx, n, rng)
        k2 = random_witt_k1_mat(wctx, n, rng)
        got = witt_class_of(k1 * x * k2, mu)
        passed += got == expect
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "witt_length": length,
        "samples": samples,
        "passed_samples": passed,
    }


def prozip_invariance_report(mu: Cocharacter, spec: FieldSpec, prec: int,
                             samples: int, seed: int) -> dict:
    """Invariance of (x, y) -> x^(-1) mu(t) y under the conjugate-pair action.

    For g integral with integral mu-conjugate and h = mu(t) g mu(t)^(-1),
    the pair (h, g) moves (x, y) to (h^(-1) x, g^(-1) y) without changing
    x^(-1) mu(t) y, up to the provable precision window.
    """
    rng = random.Random(seed)
    n = mu.n
    mu_t = mu_matrix(mu, LAURENT, spec=spec, prec=prec)
    passed = 0
    min_window = None
    for _ in range(samples):
        x = random_integral_mat(spec, n, prec, rng)
        y = random_integral_mat(spec, n, prec, rng)
        g = random_left_h_mat(spec, mu, prec, rng)
        h = conj_by_mu(g, mu, -1)
        base = x.inverse() * mu_t * y
        moved = (h.inverse() * x).inverse() * mu_t * (g.inverse() * y)
        window = min(base.min_precision(), moved.min_precision())
        if min_window is None or window < min_window:
            min_window = window
        if window < 1:
            raise InsufficientPrecision("no overlap window in invariance check")
        passed += base.congruent_mod(moved, window)
    return {
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "samples": samples,
        "passed_samples": passed,
        "window": min_window,
    }
