"""Mutation catalogue: each entry breaks one place in src that tier-1 must catch.

An entry is (id, file under src/loopzip, old text, new text, killing test ids).
The old text occurs exactly once in its file; `tests/test_source.py` checks
that, so a refactor that moves the code must update its entry here.

    python tests/mutants.py [ID ...]

applies each mutant (all, or the named ones) to a temporary copy of the
repository, runs its killing tests there and, if they all pass, the whole
tier-1 suite. It prints a kill table and exits 1 if any mutant survives or
cannot be run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the catalogue check fails on any mutated tree, so it would kill every mutant
CATALOGUE_TEST = "tests/test_source.py::test_every_catalogued_mutant_applies_to_one_place"

MUTANTS = [
    # the two strata parametrizations
    ("M1", "weyl.py", "return longest_element(mu.n, J) * w * longest_element(mu.n)",
     "return w", ["tests/test_weyl.py::test_parametrizations_gl2"]),
    ("M2", "weyl.py", "perm = w * longest_element(mu.n) * longest_element(mu.n, J)",
     "perm = w", ["tests/test_weyl.py::test_parametrizations_gl2"]),
    # report fields that must be able to fail
    ("M3", "orbits.py", '"count_at_least_reps": len(sigma_part.orbits) >= len(reps),',
     '"count_at_least_reps": True,',
     ["tests/test_orbits.py::test_weyl_reps_fail_when_orbits_are_fewer_than_representatives"]),
    ("M4", "orbits.py", "for _ in range(period):", "for _ in range(period + 1):",
     ["tests/test_orbits.py::test_chain_cycles_back_after_exactly_one_period"]),
    ("M5", "weyl.py", "u = y * wp * (x * y * x.inverse()).inverse()", "u = y * wp * y.inverse()",
     ["tests/test_weyl.py::test_coset_order_matches_the_rank_matrix_oracle"]),
    ("M6", "orbits.py", "_equivariance_draws(spec, mu, samples, seed)",
     "_equivariance_draws(spec, mu, 0, seed)",
     ["tests/test_orbits.py::test_transport_fails_when_no_equivariance_sample_is_compared"]),
    # each report's verdict replaced by True
    ("V1", "coset.py", '"passed": injective and surjective and roundtrip,', '"passed": True,',
     ["tests/test_coset.py::test_bijection_fails_on_a_census_with_a_non_canonical_pair"]),
    ("V2", "coset.py", '"passed_samples": passed,\n        "passed": passed == samples,',
     '"passed_samples": passed,\n        "passed": True,',
     ["tests/test_coset.py::test_kernel_invariance_fails_when_one_class_moves"]),
    ("V3", "coset.py", '"passed": alpha_ok and beta_ok,', '"passed": True,',
     ["tests/test_coset.py::test_embedding_fibers_fail_when_one_point_moves"]),
    ("V4", "coset.py", '"passed": census_equal and pointwise,', '"passed": True,',
     ["tests/test_coset.py::test_witt_census_fails_when_one_witt_class_moves"]),
    ("V5", "coset.py", '"window": min_window,\n        "passed": passed == samples,',
     '"window": min_window,\n        "passed": True,',
     ["tests/test_coset.py::test_prozip_invariance_fails_when_a_sample_is_not_congruent"]),
    ("V6", "witt.py", '"passed": passed == samples}', '"passed": True}',
     ["tests/test_witt.py::test_ghost_oracle_catches_a_wrong_teichmuller_lift"]),
    # verdict branches that no real run reaches
    ("V7", "orbits.py", "if act(action.identity)(x) != x:", "if False:",
     ["tests/test_orbits.py::test_action_axioms_catch_an_identity_that_moves_a_point"]),
    ("V8", "orbits.py", "well_defined = False", "well_defined = True",
     ["tests/test_orbits.py::test_transport_is_not_well_defined_when_two_orbits_merge"]),
    ("V9", "suites.py", '"passed": all(round_trips),', '"passed": True,',
     ["tests/test_coset.py::test_rescaling_check_fails_when_one_class_moves_only_at_k_mu"]),
    # the coset order
    ("W1", "weyl.py", "all(a <= b for a, b in zip(", "all(a < b for a, b in zip(",
     ["tests/test_weyl.py::test_bruhat_matches_subword_oracle",
      "tests/test_weyl.py::test_coset_order_matches_the_rank_matrix_oracle"]),
    ("W2", "weyl.py", "if rows[j] & ~row:", "if False:",
     ["tests/test_weyl.py::test_order_that_is_not_transitive_raises_convention_error"]),
    ("W3", "weyl.py", "_bits(up & ~covered)", "_bits(up)",
     ["tests/test_weyl.py::test_coset_poset_for_s3",
      "tests/test_weyl.py::test_coset_order_matches_the_rank_matrix_oracle"]),
    # the dealt listing of the minimal coset representatives
    ("W4", "weyl.py", "key=lambda w: (w.length(), w.line))", "key=lambda w: w.line)",
     ["tests/test_weyl.py::test_min_coset_reps_match_the_filter"]),
    # the one elimination rule: Mat.inverse updates the columns right of the pivot
    ("E1", "matring.py",
     "w[r][col + 1:] = [x.sub_mul(c, y) for x, y in zip(w[r][col + 1:], prow)]",
     "w[r][col + 2:] = [x.sub_mul(c, y) for x, y in zip(w[r][col + 2:], prow[1:])]",
     ["tests/test_matring.py::test_inverse_matches_the_full_loop_with_poisoned_skips"]),
    # snf_residues scales the pivot itself, and its row elimination leaves
    # column k's zeros in place
    ("E2", "matring.py", "w[k][k:] = [uinv * c for c in w[k][k:]]",
     "w[k][k + 1:] = [uinv * c for c in w[k][k + 1:]]",
     ["tests/test_matring.py::test_snf_matches_the_full_loop_with_poisoned_skips"]),
    ("L4", "matring.py",
     "w[i][k:] = [p.sub_mul(c, q) for p, q in zip(w[i][k:], w[k][k:])]",
     "w[i][k + 1:] = [p.sub_mul(c, q) for p, q in zip(w[i][k + 1:], w[k][k + 1:])]",
     ["tests/test_matring.py::test_snf_matches_the_full_loop_with_poisoned_skips"]),
    # class_of's one precision guard: a window at d_max is refused
    ("G1", "coset.py", "if known <= top:", "if known < top:",
     ["tests/test_coset.py::test_class_of_refuses_a_pair_matrix_known_only_to_d_max"]),
    # the census transversal: every row of g leads with 1, so it meets each
    # torus orbit once; row 0 alone yields too many pairs, and the first
    # entry in place of each row's lead misses orbits
    ("T1", "coset.py", "for i in range(0, n * n, n))]", "for i in range(0, n, n))]",
     ["tests/test_coset.py::test_torus_transversal_meets_each_orbit_once"]),
    ("T2", "coset.py", "if all(next(filter(None, g[i:i + n])) == 1 for",
     "if all(g[0] == 1 for",
     ["tests/test_coset.py::test_torus_transversal_meets_each_orbit_once"]),
    # the residue elimination: a's column k picks up the pivot's unit
    ("R1", "matring.py", "a[k::n] = [by_u[c] for c in a[k::n]]", "pass",
     ["tests/test_matring.py::test_snf_matches_the_full_loop_with_poisoned_skips"]),
    # the fused matrix product: its window ends where the least product window ends
    ("P1", "series.py", "prec = min(term[4] for term in terms)", "prec = terms[0][4]",
     ["tests/test_matring.py::test_fused_product_matches_the_running_sum"]),
    # the draws that read the residue from the codes: codes[0] is the t^0 coefficient
    ("P2", "grpdata.py", "residue = [c[0] if s == 0 else 0", "residue = [c[-1] if s == 0 else 0",
     ["tests/test_grpdata.py::test_draws_match_the_full_loops_draw_for_draw"]),
    # the group draws
    ("D1", "orbits.py", "random_unipotent_flat(spec, mu, -1, rng), flat_frobenius(spec, m, group_tau))",
     "random_unipotent_flat(spec, mu, -1, rng), m)",
     ["tests/test_orbits.py::test_draws_are_uniform_over_the_group"]),
    ("D2", "orbits.py", "mul(random_unipotent_flat(spec, mu, -1, rng), flat_frobenius(",
     "mul(random_unipotent_flat(spec, mu, +1, rng), flat_frobenius(",
     ["tests/test_orbits.py::test_draws_are_uniform_over_the_group"]),
    ("D3", "orbits.py", "yield g, flat_mul(spec, mu.n, random_unipotent_flat(spec, mu, -1, rng), mf), mf",
     "yield g, mf, mf",
     ["tests/test_orbits.py::test_draws_are_uniform_over_the_group"]),
]


def _pytest(tree: Path, args: list) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def run_mutant(name: str, old: str, new: str, killers: list) -> str:
    """'killers', 'tier-1' (killed only by tests outside its killers) or
    'SURVIVED'; 'error' when a run neither passes nor fails."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        path = tree / "src" / "loopzip" / name
        text = path.read_text()
        if text.count(old) != 1:
            return "error"
        path.write_text(text.replace(old, new))
        for verdict, args in (("killers", killers), ("tier-1", ["--deselect", CATALOGUE_TEST])):
            code = _pytest(tree, args)
            if code == 1:
                return verdict
            if code != 0:
                return "error"
    return "SURVIVED"


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    bad = 0
    print(f"{'id':4} {'file':10} killed by")
    for ident, name, old, new, killers in chosen:
        verdict = run_mutant(name, old, new, killers)
        bad += verdict in ("SURVIVED", "error")
        print(f"{ident:4} {name:10} {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
