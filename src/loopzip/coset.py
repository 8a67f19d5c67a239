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
from itertools import chain

from .errors import InsufficientPrecision, WrongCell, check_budget
from .gf import FieldSpec
from .grpdata import (
    CLASS_CAP,
    Cocharacter,
    check_mu_window,
    conj_by_mu,
    enumerate_gl_flat,
    gl_order,
    random_gl_flat,
    random_integral_mat,
    random_k1_mat,
    random_left_h_mat,
    times_mu,
    unipotent_order,
    zip_group_order,
)
from .matring import (
    Mat,
    flat_identity,
    flat_inverse,
    gauss_jordan,
    snf_residues,
)
from .series import LaurentElt, _raw
from .witt import WittCtx, WittFraction


def default_precision(mu: Cocharacter) -> int:
    """The suites' Laurent window for mu, which reports print as "precision":
    the Cartan bound max(2 (d_max - d_min) + 2, 2 max|d_i| + 1), at least 6,
    raised by -d_min, since a pair matrix built at window P is known only to
    P + min(0, d_min).  class_of needs less: entries known past pi^(d_max)."""
    dmax, dmin = max(mu.weights), min(mu.weights)
    cartan = max(2 * (dmax - dmin) + 2, 2 * max(dmax, -dmin) + 1)
    return max(6, cartan + max(0, -dmin))


def _left_half(spec: FieldSpec, mu: Cocharacter, g, h) -> tuple:
    """(min over p in P_- of p g, Levi(p) h) for the one minimizing p.

    Block k of the least p g is the reduced row echelon basis of the span of
    the rows of g in blocks <= k, at the pivots that the earlier blocks lack,
    in descending pivot order: Gauss-Jordan with each pivot taken from the
    earliest block, whose operations inside a block, Levi(p), act on h too.
    """
    order, w, x = gauss_jordan(spec, mu.n, g, h, mu.block_of)
    g_min, levi_h = [], []
    for r in sorted(reversed(order), key=mu.block_of.__getitem__):
        g_min += w[r]
        levi_h += x[r]
    return tuple(g_min), tuple(levi_h)


def _right_half(spec: FieldSpec, mu: Cocharacter, h) -> tuple:
    """min over u in U_+ of u h: each row of h with the pivot columns of an
    echelon basis of the span W of the rows in later blocks cleared.  Going
    up from the bottom, each row is cleared, then joins the basis, cleared
    against the rows of its own block too."""
    n, blk = mu.n, mu.block_of
    mul, add, neg, inv = spec.mul_table, spec.add_table, spec.neg_table, spec.inv_table
    out = [h[i * n:(i + 1) * n] for i in range(n)]
    # (pivot, row), each row 0 at the pivots before it; basis[:later] spans W
    basis, later = [], 0
    for i in reversed(range(n)):
        if i + 1 < n and blk[i] != blk[i + 1]:
            later = len(basis)
        row = out[i]
        for k, (col, e) in enumerate(basis):
            if k == later:
                out[i] = row
            if row[col]:
                by_c = mul[neg[mul[row[col]][inv[e[col]]]]]
                row = [add[u][by_c[v]] for u, v in zip(row, e)]
        if later == len(basis):
            out[i] = row
        basis.append((next(col for col, v in enumerate(row) if v), row))
    return tuple(chain.from_iterable(out))


def canonical_flat(spec: FieldSpec, mu: Cocharacter, g_flat, h_flat) -> tuple:
    """Lex-least pair in the zip-group orbit of (g, h).

    The zip group is {(u_- m, u_+ m)}.  Its first components run over P_-,
    which acts freely, so g' = min p g is reached by a unique p; the pairs
    with first component g' then have second components u_+ Levi(p) h.
    """
    g_min, levi_h = _left_half(spec, mu, g_flat, h_flat)
    return g_min, _right_half(spec, mu, levi_h)


# -- the cell map and its inverse -------------------------------------------------


def pair_matrix(mu: Cocharacter, g_flat, h_flat, one) -> Mat:
    """g~^(-1) pi^mu h~ for the lifts of g and h into the ring of `one`."""
    return lifted_product(mu, flat_inverse(one.spec, mu.n, g_flat), h_flat, one)


def lifted_product(mu: Cocharacter, left, right, one) -> Mat:
    """lift(left) mu(pi) lift(right) in closed form, for flat F_q matrices
    whose left factor has no zero row.

    The lifts are constant Laurent coefficients for pi = t and Teichmuller
    lifts for pi = p.  Entry (i, j) is sum_k left_ik right_kj pi^(d_k), stored
    as the two matrix products at window P store it.  The min-rule of
    products and sums gives it the window min over k of
        P + min(d_k, 0)    if right_kj != 0,
        P + d_k            if right_kj = 0 and left_ik != 0,
        2P + min(d_k, 0)   otherwise,
    which a Witt fraction caps by its denominator as usual.
    """
    check_mu_window(mu, one)  # mu(pi) exists at this window
    n, d, big = mu.n, mu.weights, one.prec
    mul = one.spec.mul_table
    windows = [(big + min(dk, 0), big + dk, 2 * big + min(dk, 0)) for dk in d]
    entry = _laurent_entry if isinstance(one, LaurentElt) else _witt_entry
    rows = []
    for i in range(n):
        l_row = left[i * n:(i + 1) * n]
        row = []
        for j in range(n):
            prec = 2 * big  # no window above
            codes = []
            for a, (w_right, w_left, w_none), b in zip(l_row, windows, right[j::n]):
                prec = min(prec, w_right if b else w_left if a else w_none)
                codes.append(mul[a][b])
            row.append(entry(one, d, codes, prec))
        rows.append(row)
    return Mat(rows)


def _laurent_entry(one: LaurentElt, d, codes, prec: int) -> LaurentElt:
    """sum_k codes_k t^(d_k) modulo t^prec, stored from exponent min(0, d_min)
    as the products store it (from d itself for n = 1, where no zero entry
    enters a sum)."""
    v = min(0, *d) if len(d) > 1 else d[0]
    add = one.spec.add_table
    out = [0] * (prec - v)
    for dk, c in zip(d, codes):
        if c and dk < prec:
            out[dk - v] = add[out[dk - v]][c]
    return _raw(one.spec, v, prec, tuple(out))


def _witt_entry(one: WittFraction, d, codes, known: int) -> WittFraction:
    """p^(-e) sum_k [codes_k] p^(d_k + e) modulo p^known, e the largest -d_k
    of a nonzero term, stripped as the sum of the products is."""
    e = max([0] + [-dk for dk, c in zip(d, codes) if c])
    num = one.ctx.teichmuller_sum((dk + e, c) for dk, c in zip(d, codes) if c)
    return WittFraction(one.ctx, e, num, known).stripped()


MIXED_PRIMES = (2, 3)  # residue characteristics of suite witt's ghost checks and census
MIXED_LENGTH = 3  # the Witt length of the mixed census
MIXED_CENSUS_NEEDS = ("the mixed census of suite witt needs p in {2, 3}, n <= 2 "
                      "and weights with |d_i| <= 1")


def mixed_census_applies(spec: FieldSpec, mu: Cocharacter) -> bool:
    """Whether suite witt runs its mixed census on (spec, mu), as MIXED_CENSUS_NEEDS states."""
    return mu.n <= 2 and spec.p in MIXED_PRIMES and max(map(abs, mu.weights)) <= 1


def class_of(x: Mat, mu: Cocharacter) -> tuple:
    """Canonical pair of a Laurent or Witt-fraction matrix lying in the cell of mu.

    Decomposes x = a mu(pi) b, reduces a and b modulo pi, and canonicalizes
    the pair (abar^(-1), bbar); replacing a by abar or b by bbar moves x
    only by depth-one kernel factors, which the double coset absorbs.
    Minimal-valuation pivoting never shrinks a window and reduction mod pi
    commutes with integral row and column operations (Serre, Local Fields,
    II), so in either ring this decides every x known past pi^(d_max).
    """
    known, top = x.min_precision(), max(0, *mu.weights)
    if known <= top:
        raise InsufficientPrecision(
            f"precision {known} below safe floor {top + 1} for weights {mu.weights}")
    abar, d, bbar = snf_residues(x)
    if tuple(d) != mu.weights:
        raise WrongCell(f"diagonal weights {d} differ from {mu.weights}")
    spec = x.rows[0][0].spec
    return canonical_flat(spec, mu, flat_inverse(spec, mu.n, abar), bbar)


def embed_before_mu(spec: FieldSpec, mu: Cocharacter, g_flat) -> tuple:
    """Canonical pair of g mu(t): the class of (g^(-1), 1)."""
    return canonical_flat(spec, mu, flat_inverse(spec, mu.n, g_flat), flat_identity(mu.n))


def embed_after_mu(spec: FieldSpec, mu: Cocharacter, g_flat) -> tuple:
    """Canonical pair of mu(t) g: the class of (1, g)."""
    return canonical_flat(spec, mu, flat_identity(mu.n), g_flat)


# -- verification reports ------------------------------------------------------------


def _check_classified(engine: str, n: int, q: int, count: int, unit: str) -> None:
    """Refuse a run that would classify more than CLASS_CAP points."""
    check_budget(count <= CLASS_CAP, engine, f"n={n}, q={q} classifies {count:,} {unit}",
                 f"{CLASS_CAP:,} points classified")


def verify_class_bijection(mu: Cocharacter, spec: FieldSpec, prec: int, census: dict) -> dict:
    """Exhaustive check that zip orbits on pairs biject with classes, given
    the class census of (mu, spec)."""
    one = LaurentElt.one(spec, prec)
    roundtrip = True
    classes = set()
    inverses = {g: flat_inverse(spec, mu.n, g) for g in {g for g, _ in census}}
    for rep in census:
        c = class_of(lifted_product(mu, inverses[rep[0]], rep[1], one), mu)
        classes.add(c)
        if c != rep:
            roundtrip = False
    injective = len(classes) == len(census) and roundtrip
    surjective = classes == set(census)
    return {
        "name": "class-orbit-bijection",
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "pair_count": gl_order(mu.n, spec.q) ** 2,
        "orbit_count": len(census),
        "class_count": len(classes),
        "round_trip": roundtrip,
        "injective": injective,
        "surjective": surjective,
        "passed": injective and surjective and roundtrip,
    }


def class_census(mu: Cocharacter, spec: FieldSpec) -> dict:
    """Canonical class representatives, in order, with their orbit sizes.

    The zip group E acts freely, so every orbit has |E| pairs and there are
    |G|^2 / |E| classes, counted against the budget before G is enumerated;
    fixing the first component g' leaves U_+ acting alone on the second, so
    the representatives are all pairs (min of P_- g, min of U_+ h) over g, h in G.
    """
    n = mu.n
    size = zip_group_order(mu, spec.q)
    _check_classified("class census", n, spec.q, gl_order(n, spec.q) ** 2 // size, "classes")
    gl = enumerate_gl_flat(spec, n)
    left = sorted({_left_half(spec, mu, g, ())[0] for g in gl})
    right = sorted({_right_half(spec, mu, h) for h in gl})
    return {(a, b): size for a in left for b in right}


def kernel_invariance_report(mu: Cocharacter, one, samples: int, seed: int) -> dict:
    """class_of(k1 x k2) = canonical pair of (g, h) for x the pair matrix of
    random g, h in the ring of `one` and random depth-one kernel k1, k2."""
    rng = random.Random(seed)
    spec, n = one.spec, mu.n
    passed = 0
    for _ in range(samples):
        g = random_gl_flat(spec, n, rng)
        h = random_gl_flat(spec, n, rng)
        k1 = random_k1_mat(one, n, rng)
        k2 = random_k1_mat(one, n, rng)
        got = class_of(k1 * pair_matrix(mu, g, h, one) * k2, mu)
        passed += got == canonical_flat(spec, mu, g, h)
    witt = isinstance(one, WittFraction)
    return {
        "name": "mixed-kernel-bi-invariance" if witt else "kernel-bi-invariance",
        "mu": list(mu.weights),
        "q": spec.q,
        "witt_length" if witt else "precision": one.prec,
        "samples": samples,
        "passed_samples": passed,
        "passed": passed == samples,
    }


def embedding_fiber_report(mu: Cocharacter, spec: FieldSpec) -> dict:
    """Fiber sizes of the two closed embeddings on F_q points."""
    n = mu.n
    fibers_a: dict = {}
    fibers_b: dict = {}
    for g in enumerate_gl_flat(spec, n):
        ca = embed_before_mu(spec, mu, g)
        cb = embed_after_mu(spec, mu, g)
        fibers_a[ca] = fibers_a.get(ca, 0) + 1
        fibers_b[cb] = fibers_b.get(cb, 0) + 1
    u_order = unipotent_order(mu, spec.q)
    alpha_ok = set(fibers_a.values()) == {u_order}
    beta_ok = set(fibers_b.values()) == {u_order}
    return {
        "name": "embedding-fibers",
        "mu": list(mu.weights),
        "q": spec.q,
        "alpha_fiber_sizes": sorted(set(fibers_a.values())),
        "beta_fiber_sizes": sorted(set(fibers_b.values())),
        "expected_alpha": u_order,
        "expected_beta": u_order,
        "alpha_ok": alpha_ok,
        "beta_ok": beta_ok,
        "passed": alpha_ok and beta_ok,
    }


def torus_transversal(spec: FieldSpec, n: int) -> list:
    """The g in G(F_q) whose rows each lead with 1: one in each orbit of the
    diagonal torus T(F_q), which scales row i of g by t_i."""
    return [g for g in enumerate_gl_flat(spec, n)
            if all(next(filter(None, g[i:i + n])) == 1 for i in range(0, n * n, n))]


def mixed_pair_classes(mu: Cocharacter, spec: FieldSpec, length: int, prec: int):
    """(Laurent class, Witt class) of the pair matrix of each (g, h), g in
    `torus_transversal` and h in G, in that order: one pair per orbit of
    T(F_q) on G x G, since (t g, t h) has the codes (g^(-1))_ik h_kj and the
    zero pattern of (g, h), so the same pair matrix in either ring."""
    rings = (LaurentElt.one(spec, prec), WittFraction.one(WittCtx.get(spec, length)))
    gl = enumerate_gl_flat(spec, mu.n)
    for g in torus_transversal(spec, mu.n):
        ginv = flat_inverse(spec, mu.n, g)
        for h in gl:
            yield tuple(class_of(lifted_product(mu, ginv, h, one), mu) for one in rings)


def witt_census_report(mu: Cocharacter, spec: FieldSpec, length: int,
                       prec: int) -> dict:
    """Mixed-characteristic census compared with the Laurent census."""
    _check_classified("mixed census", mu.n, spec.q, gl_order(mu.n, spec.q) ** 2, "pairs")
    laurent_classes = set()
    witt_classes = set()
    pointwise = True
    for ct, cw in mixed_pair_classes(mu, spec, length, prec):
        laurent_classes.add(ct)
        witt_classes.add(cw)
        pointwise &= ct == cw
    census_equal = laurent_classes == witt_classes
    return {
        "name": "mixed-census-equality",
        "mu": list(mu.weights),
        "q": spec.q,
        "witt_length": length,
        "precision": prec,
        "laurent_classes": len(laurent_classes),
        "witt_classes": len(witt_classes),
        "pointwise_equal": pointwise,
        "census_equal": census_equal,
        "passed": census_equal and pointwise,
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
    check_mu_window(mu, LaurentElt.one(spec, prec))  # mu(t) exists at this window
    passed = 0
    min_window = None
    for _ in range(samples):
        x = random_integral_mat(spec, n, prec, rng)
        y = random_integral_mat(spec, n, prec, rng)
        g = random_left_h_mat(spec, mu, prec, rng)
        h = conj_by_mu(g, mu, -1)
        base = times_mu(x.inverse(), mu, prec) * y
        moved = times_mu((h.inverse() * x).inverse(), mu, prec) * (g.inverse() * y)
        window = min(base.min_precision(), moved.min_precision())
        if min_window is None or window < min_window:
            min_window = window
        if window < 1:
            raise InsufficientPrecision("no overlap window in invariance check")
        passed += base.congruent_mod(moved, window)
    return {
        "name": "conjugate-pair-invariance",
        "mu": list(mu.weights),
        "q": spec.q,
        "precision": prec,
        "samples": samples,
        "passed_samples": passed,
        "window": min_window,
        "passed": passed == samples,
    }
