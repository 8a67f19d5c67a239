"""Reference canonicalization: the least product over every group element.

This is the canonical-pair computation that the row-trie descent in
`loopzip.coset` replaced: min of p g over all of P_-, then min of u m h
over all of U_+, one full matrix product per group element.  The tests
compare the descent with it.
"""

from __future__ import annotations

from functools import lru_cache

from loopzip.gf import FieldSpec
from loopzip.grpdata import enumerate_gl_flat, enumerate_parabolic_flat, enumerate_unipotent_flat
from loopzip.matring import flat_mul


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
