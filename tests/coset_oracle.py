"""Reference forms of two `loopzip.coset` computations.

The canonical pair as the least product over every group element: the
computation that the row-trie descent replaced, min of p g over all of P_-,
then min of u m h over all of U_+, one full matrix product per group element.

The pair matrix as two matrix products of constant lifts, the form that the
closed-form `lifted_product` replaced; its entries and their windows are the
reference that the closed form must reproduce.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache

from loopzip.errors import LoopZipError
from loopzip.gf import FieldSpec
from loopzip.grpdata import (
    Cocharacter,
    enumerate_gl_flat,
    enumerate_parabolic_flat,
    enumerate_unipotent_flat,
    mu_matrix,
)
from loopzip.matring import Mat, flat_inverse, flat_mul
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction


@lru_cache(maxsize=None)
def _groups(p: int, m: int, mu) -> tuple:
    """P_- as (element, Levi part) pairs, and U_+."""
    spec = FieldSpec.get(p, m)
    return (tuple(enumerate_parabolic_flat(spec, mu, -1)),
            tuple(enumerate_unipotent_flat(spec, mu, +1)))


def oracle_left(spec, mu, g) -> tuple:
    """(min over p in P_- of p g, Levi part of the minimizing p)."""
    pminus, _ = _groups(spec.p, spec.m, mu)
    return min((flat_mul(spec, mu.n, p, g), lev) for p, lev in pminus)


def oracle_right(spec, mu, h) -> tuple:
    """min over u in U_+ of u h."""
    _, uplus = _groups(spec.p, spec.m, mu)
    return min(flat_mul(spec, mu.n, u, h) for u in uplus)


def oracle_canonical_flat(spec, mu, g, h) -> tuple:
    g_min, lev = oracle_left(spec, mu, g)
    return g_min, oracle_right(spec, mu, flat_mul(spec, mu.n, lev, h))


def oracle_class_census(mu, spec) -> dict:
    """Every pair (min P_- g, min U_+ h), in order, with |P_-| |U_+| as orbit size."""
    pminus, uplus = _groups(spec.p, spec.m, mu)
    gl = enumerate_gl_flat(spec, mu.n)
    left = sorted({oracle_left(spec, mu, g)[0] for g in gl})
    right = sorted({oracle_right(spec, mu, h) for h in gl})
    size = len(pminus) * len(uplus)
    return {(a, b): size for a in left for b in right}


def lift(one, n: int, flat) -> Mat:
    """Constant lift of a flat F_q matrix into the ring of `one`: constant
    Laurent coefficients for pi = t, Teichmuller lifts for pi = p."""
    pad = (0,) * (one.prec - 1)
    return Mat([
        [one.from_codes((c,) + pad) for c in flat[i * n:(i + 1) * n]] for i in range(n)
    ])


def oracle_pair_matrix(mu, g, h, one) -> Mat:
    """g~^(-1) pi^mu h~ as the product of the lifts and mu_matrix."""
    n = mu.n
    return lift(one, n, flat_inverse(one.spec, n, g)) * mu_matrix(mu, one) * lift(one, n, h)


def entry_form(x) -> tuple:
    """What a closed form must reproduce of an entry: the stored window and
    coefficients (v, prec, codes) of a Laurent series, the exponent, window
    and numerator coordinates (e, known, coords) of a Witt fraction."""
    if isinstance(x, LaurentElt):
        return x.v, x.prec, x.codes
    return x.e, x.known, x.ctx.coords(x.num)


def outcome(build, *args):
    """The entry forms of the matrix build(*args), or the class and message
    of the loopzip error it raises."""
    try:
        m = build(*args)
    except LoopZipError as exc:
        return type(exc).__name__, str(exc)
    return [entry_form(x) for r in m.rows for x in r]


def pair_mismatches(build, mu, one, pairs) -> int:
    """Number of pairs (g, h) where build(mu, g, h, one) and the product form
    differ in an entry form or in the error raised."""
    return sum(
        outcome(build, mu, g, h, one) != outcome(oracle_pair_matrix, mu, g, h, one)
        for g, h in pairs
    )


def pair_floor(mu, ring: str) -> int:
    """Least window at which mu_matrix exists: pi^max(d) needs P > max(d); a
    Witt pi^min(d) needs the length above -min(d); a Laurent one needs P >= 1."""
    d = mu.weights
    if ring == "witt":
        return max(max(d), -min(d)) + 1
    return max(max(d) + 1, 1)


def ring_one(spec, ring: str, prec: int):
    return (LaurentElt.one(spec, prec) if ring == "laurent"
            else WittFraction.one(WittCtx.get(spec, prec)))


def full_pair_comparison():
    """The closed form against the product on every pair: GL2(F4) and GL3(F2)
    over Laurent series at the floor window and the pipeline's default, and
    GL2(F3) over Witt vectors at every length from the floor to 4.  Prints one
    line per configuration and returns the total number of mismatches."""
    from loopzip.coset import default_precision, pair_matrix

    configs = []
    for q, weights in [(4, (1, 0)), (4, (1, -1)), (4, (2, -1)), (4, (0, -2)), (4, (-1, -1)),
                       (2, (1, 1, 0)), (2, (2, 1, 0)), (2, (1, 0, -1))]:
        mu = Cocharacter(weights)
        for prec in sorted({pair_floor(mu, "laurent"), default_precision(mu)}):
            configs.append((q, mu, "laurent", prec))
    for weights in [(1, 0), (1, -1), (2, -1), (0, -2), (-1, -1)]:
        mu = Cocharacter(weights)
        for length in range(pair_floor(mu, "witt"), 5):
            configs.append((3, mu, "witt", length))
    total = 0
    for q, mu, ring, prec in configs:
        spec = FieldSpec.for_q(q)
        gl = enumerate_gl_flat(spec, mu.n)
        pairs = list(itertools.product(gl, gl))
        bad = pair_mismatches(pair_matrix, mu, ring_one(spec, ring, prec), pairs)
        total += bad
        print(f"{ring} q={q} mu={mu.weights} window={prec}: "
              f"{len(pairs)} pairs, {len(pairs) * mu.n ** 2} entries, {bad} mismatches")
    return total


if __name__ == "__main__":
    # python tests/coset_oracle.py  (with src on PYTHONPATH): the full comparison
    sys.exit(1 if full_pair_comparison() else 0)
