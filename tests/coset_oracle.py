"""Reference forms of two `loopzip.coset` computations.

The canonical pair in two slower forms that the echelon eliminations of
`coset._left_half` and `coset._right_half` must reproduce:
- the least product over every group element, min of p g over all of P_-,
  then min of u m h over all of U_+, one full matrix product per element;
- the row-trie descent, which walks tries of the rows of P_- and of U_+,
  stepping at each depth to the child whose image row is least.  It is fast
  enough to compare the halves on every g of GL_2(F_q), q <= 9, of GL_3(F_2),
  GL_3(F_3) and GL_4(F_2), in the full comparison below (about a minute).

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
from loopzip.grpdata import Cocharacter, enumerate_gl_flat
from loopzip.matring import Mat, flat_identity, flat_inverse, flat_mul
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction
from laurent_oracle import entry_form, mu_matrix
from orbits_oracle import enumerate_parabolic_flat, enumerate_unipotent_flat


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


def _row_trie(items, n: int, depth: int = 0):
    """Nested ((row, subtrie), ...) over the rows of (flat, payload) items.

    Rows are keyed from the top; a node at depth n is the payload of the
    one flat that reaches it.
    """
    if depth == n:
        return items[0][1]
    children: dict = {}
    for flat, payload in items:
        children.setdefault(flat[depth * n:(depth + 1) * n], []).append((flat, payload))
    return tuple((row, _row_trie(sub, n, depth + 1)) for row, sub in children.items())


@lru_cache(maxsize=None)
def _row_tries(p: int, m: int, mu: Cocharacter) -> tuple:
    """Row tries of P_- (leaves: Levi parts) and of U_+, keyed by value."""
    spec = FieldSpec.get(p, m)
    uplus = [(u, None) for u in enumerate_unipotent_flat(spec, mu, +1)]
    return _row_trie(enumerate_parabolic_flat(spec, mu, -1), mu.n), _row_trie(uplus, mu.n)


def _descend(spec: FieldSpec, n: int, trie, g) -> tuple:
    """Least a g over the matrices a of a row trie, and the leaf of that a.

    Row i of a g is (row i of a) g, and an invertible g sends distinct
    rows to distinct images, so the least product is reached row by row,
    stepping each time to the one child whose image is least.
    """
    mul, add = spec.mul_table, spec.add_table
    g_rows = [g[k * n:(k + 1) * n] for k in range(n)]
    out = ()
    node = trie
    for _ in range(n):
        best = None
        for row, child in node:
            img = None
            for c, g_row in zip(row, g_rows):
                if c:
                    by_c = mul[c]
                    if img is None:
                        img = [by_c[y] for y in g_row]
                    else:
                        img = [add[x][by_c[y]] for x, y in zip(img, g_row)]
            if best is None or img < best:
                best, nxt = img, child
        out += tuple(best)
        node = nxt
    return out, node


def trie_left(spec, mu, g) -> tuple:
    """oracle_left by descent of the row trie of P_-."""
    return _descend(spec, mu.n, _row_tries(spec.p, spec.m, mu)[0], g)


def trie_right(spec, mu, h) -> tuple:
    """oracle_right by descent of the row trie of U_+."""
    return _descend(spec, mu.n, _row_tries(spec.p, spec.m, mu)[1], h)[0]


# (q, weights) of the full trie comparison: GL2 over every field up to F_9,
# GL3 over F_2 and F_3 in the GL3 weights of test_coset's DESCENT_CASES, and
# GL4(F_2) in one weight per block shape
TRIE_CASES = (
    [(q, w) for q in (2, 3, 4, 5, 8, 9) for w in [(1, 0), (2, 0), (0, 0), (2, -1)]]
    + [(q, w) for q in (2, 3) for w in [(1, 1, 0), (1, 0, 0), (2, 1, 0), (0, 0, 0)]]
    + [(2, w) for w in [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0),
                        (2, 2, 1, 0), (2, 1, 1, 0), (2, 1, 0, 0), (3, 2, 1, 0)]]
)


def full_trie_comparison() -> int:
    """Both echelon halves against the trie descent on every g of every
    TRIE_CASES group: the left half on (g, 1), which returns (g', Levi(p))
    as the trie's P_- descent does, and the right half on g.  Prints one
    line per case and returns the total number of mismatches."""
    from loopzip.coset import _left_half, _right_half

    total = 0
    for q, weights in TRIE_CASES:
        spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
        ident = flat_identity(mu.n)
        gl = enumerate_gl_flat(spec, mu.n)
        bad = sum(_left_half(spec, mu, g, ident) != trie_left(spec, mu, g) for g in gl)
        bad += sum(_right_half(spec, mu, g) != trie_right(spec, mu, g) for g in gl)
        total += bad
        print(f"q={q} mu={weights}: {len(gl)} elements, {bad} mismatches")
    return total


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
    # python tests/coset_oracle.py  (with src on PYTHONPATH): both full comparisons
    sys.exit(1 if full_pair_comparison() + full_trie_comparison() else 0)
