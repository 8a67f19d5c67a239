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

The matrices that the class pipeline hands `snf_residues`, decomposed in
full by `laurent_oracle.full_diagonalize`, whose pivots and d are those of
snf_residues, and checked by the exact factorization oracles of
`laurent_oracle` and `witt_oracle`: a dropped remainder that `class_of` met
would show there as an overclaim.

The K_1 double cosets of a cell of GL_2(F_2) modulo t^P, walked from their
definition, each of which must lie in one fibre of `class_of`; and the
GL_3(F_2) mixed census, which the witt suite does not run, through
`witt_census_report` itself.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from functools import lru_cache, partial

from loopzip.coset import (MIXED_LENGTH, class_census, class_of, default_precision, pair_matrix,
                           witt_census_report)
from loopzip.errors import LoopZipError
from loopzip.gf import FieldSpec
from loopzip.grpdata import Cocharacter, enumerate_gl_flat, random_gl_flat, random_k1_mat
from loopzip.matring import Mat, flat_identity, flat_inverse, flat_mul
from loopzip.series import LaurentElt
from loopzip.witt import WittCtx, WittFraction
import laurent_oracle
import witt_oracle
from laurent_oracle import entry_form, full_diagonalize, mu_matrix
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


# (q, weights): GL_2 and GL_3(F_2) in the weights |d_i| <= 1 that the mixed
# pipeline accepts, so that both rings classify the same inputs
PIPELINE_CASES = [(2, (1, 0)), (2, (0, 0)), (2, (1, -1)), (3, (1, 0)), (3, (1, -1)),
                  (4, (1, 0)), (4, (0, -1)), (2, (1, 0, 0)), (2, (1, 1, 0)), (2, (1, 0, -1))]


def _sandwich(k1, mu, g, h, one, k2) -> Mat:
    return k1 * pair_matrix(mu, g, h, one) * k2


def pipeline_inputs(q: int, weights, kernel_samples: int, seed: int):
    """(ring, build) for the matrices the class pipeline decomposes on
    GL_n(F_q), each built by calling build():
    the pair matrix of every census representative at mu, 2 mu and 3 mu (the
    bijection and the rescaling round trips), at the Laurent window
    `default_precision` and at the least Witt length >= 3 that holds the
    weights; then `kernel_samples` products k1 x k2 per ring, drawn as
    `kernel_invariance_report` draws them at mu."""
    spec, mu = FieldSpec.for_q(q), Cocharacter(weights)
    census = class_census(mu, spec)
    for nu in (mu.scaled(k) for k in (1, 2, 3)):
        for ring, prec in (("laurent", default_precision(nu)),
                           ("witt", max(MIXED_LENGTH, pair_floor(nu, "witt")))):
            one = ring_one(spec, ring, prec)
            for g, h in census:
                yield ring, partial(pair_matrix, nu, g, h, one)
    for ring, prec in (("laurent", default_precision(mu)), ("witt", MIXED_LENGTH)):
        one, rng = ring_one(spec, ring, prec), random.Random(seed)
        for _ in range(kernel_samples):
            g = random_gl_flat(spec, mu.n, rng)
            h = random_gl_flat(spec, mu.n, rng)
            k1 = random_k1_mat(one, mu.n, rng)
            k2 = random_k1_mat(one, mu.n, rng)
            yield ring, partial(_sandwich, k1, mu, g, h, one, k2)


def pipeline_factorization_sweep(cases, kernel_samples: int, share: float, seed: int) -> dict:
    """ring -> [decomposed, flagged, refused]: `full_diagonalize` on a seeded
    share of `pipeline_inputs` over the (q, weights) cases, counting the
    decompositions the ring's `factorization_overclaims` flags."""
    oracles = {"laurent": laurent_oracle.factorization_overclaims,
               "witt": witt_oracle.factorization_overclaims}
    counts = {ring: [0, 0, 0] for ring in oracles}
    pick = random.Random(seed)
    for q, weights in cases:
        for ring, build in pipeline_inputs(q, weights, kernel_samples, seed):
            if pick.random() >= share:
                continue
            x = build()
            try:
                a, d, b = full_diagonalize(x, False)
            except LoopZipError:
                counts[ring][2] += 1
                continue
            counts[ring][0] += 1
            counts[ring][1] += bool(oracles[ring](x, a, d, b))
    return counts



# -- the K_1 double cosets of a cell of GL_2(F_2), from their definition -------------


def _bit_mul(a: int, b: int, mask: int) -> int:
    """Product of two F_2[t] polynomials as bit ints (bit i is the t^i
    coefficient), cut mod t^P by mask = 2^P - 1."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out & mask


def _bit_val(a: int) -> int:
    """t-adic valuation of a nonzero bit polynomial."""
    return (a & -a).bit_length() - 1


def _k1_moves(x: tuple, P: int, mask: int):
    """The images of x = (x00, x01, x10, x11) under left and right products by
    the generators I + t^k E_ij, k = 1..P-1, of K_1 mod t^P: row i plus
    t^k row j, and column j plus t^k column i."""
    for k in range(1, P):
        for i in (0, 1):
            for j in (0, 1):
                y = list(x)
                y[2 * i], y[2 * i + 1] = (y[2 * i] ^ (x[2 * j] << k) & mask,
                                          y[2 * i + 1] ^ (x[2 * j + 1] << k) & mask)
                yield tuple(y)
                y = list(x)
                y[j], y[2 + j] = y[j] ^ (x[i] << k) & mask, y[2 + j] ^ (x[2 + i] << k) & mask
                yield tuple(y)


def finite_model_partition(weights, P: int) -> tuple:
    """(points, orbits, classes, split) for the cell of mu = weights, d_1 >=
    d_2 >= 0 with d_1 + d_2 < P, in GL_2(F_2[t]/t^P): the points x mod t^P
    whose entries have least valuation d_2 and whose determinant has
    valuation d_1 + d_2 (the elementary divisors of x, Serre, Local Fields,
    II), the orbits of K_1 x K_1 on them walked by the generators of both
    sides, the distinct `class_of` values of the points at the window P, and
    the number of orbits that meet more than one class.  The cell is scanned
    through all 2^(4P) matrices, so P <= 4."""
    d1, d2 = weights
    mask, spec, mu = (1 << P) - 1, FieldSpec.for_q(2), Cocharacter(weights)
    cell = []
    for x in itertools.product(range(1 << P), repeat=4):
        det = _bit_mul(x[0], x[3], mask) ^ _bit_mul(x[1], x[2], mask)
        if det and _bit_val(det) == d1 + d2 and min(_bit_val(e) for e in x if e) == d2:
            cell.append(x)
    parent = {x: x for x in cell}

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x in cell:
        for y in _k1_moves(x, P, mask):
            parent[root(y)] = root(x)
    fibres: dict = {}
    for x in cell:
        entries = [LaurentElt(spec, 0, P, [e >> i & 1 for i in range(P)]) for e in x]
        fibres.setdefault(root(x), set()).add(class_of(Mat([entries[:2], entries[2:]]), mu))
    classes = set().union(*fibres.values())
    split = sum(len(f) > 1 for f in fibres.values())
    return len(cell), len(fibres), len(classes), split

if __name__ == "__main__":
    # python tests/coset_oracle.py  (with src on PYTHONPATH): the full comparisons
    # and the factorization check of every pipeline input
    counts = pipeline_factorization_sweep(PIPELINE_CASES, 200, 1.0, 0)
    for ring, (decomposed, flagged, refused) in counts.items():
        print(f"pipeline inputs, {ring}: {decomposed} decomposed, {flagged} flagged, "
              f"{refused} refused")
    flagged = sum(c[1] for c in counts.values())
    start = time.perf_counter()
    points, orbits, classes, split = finite_model_partition((1, 0), 4)
    print(f"finite model, mu=(1, 0), P=4: {points} points, {orbits} K1 x K1 orbits, "
          f"{classes} classes, {split} orbits split ({time.perf_counter() - start:.1f} s)")
    failed = split + (orbits != classes)
    for weights in ((1, 0, 0), (1, 0, -1)):
        mu, start = Cocharacter(weights), time.perf_counter()
        report = witt_census_report(mu, FieldSpec.for_q(2), MIXED_LENGTH, default_precision(mu))
        print(f"mixed census, GL_3(F_2), mu={weights}: {report['laurent_classes']} Laurent and "
              f"{report['witt_classes']} Witt classes, pointwise equal "
              f"{report['pointwise_equal']} ({time.perf_counter() - start:.1f} s)")
        failed += not report["passed"]
    sys.exit(1 if flagged + failed + full_pair_comparison() + full_trie_comparison() else 0)
