import hashlib
import io
import json

import pytest

from loopzip.cli import main


LEMMA_NOTE = ("note: suite lemmas ran without its exhaustive checks: the exhaustive checks "
              "of suite lemmas need n = 2, q = 2, 1x1 blocks and a weight gap <= 3\n")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_lemmas_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "lemmas", "--n", "2", "--q", "2", "--mu", "1,0",
         "--prec", "6", "--samples", "20"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_budget_exit_2(capsys):
    # 37,800 classes: the smallest class count of GL_4(F_2) at nontrivial weights
    code, _, err = run_cli(
        ["verify", "--suite", "psi", "--n", "4", "--q", "2", "--mu", "1,0,0,0"], capsys
    )
    assert code == 2
    assert "configuration" in err


@pytest.mark.parametrize("suite,q", [("psi", "4"), ("psi", "5"), ("chain", "5"), ("chain", "8"),
                                     ("weyl", "5"), ("weyl", "8")])
def test_suites_run_on_gl2_beyond_q3(suite, q, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", suite, "--q", q, "--mu", "1,0"], capsys
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"]


def test_verify_mismatched_n_exit_2(capsys):
    code, _, _ = run_cli(
        ["verify", "--suite", "weyl", "--n", "3", "--q", "2", "--mu", "1,0"], capsys
    )
    assert code == 2


def test_verify_nonsorted_mu_exit_2(capsys):
    code, _, _ = run_cli(
        ["verify", "--suite", "weyl", "--q", "2", "--mu", "0,1"], capsys
    )
    assert code == 2


def test_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope", "--mu", "1,0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_q_choices_and_witt_primes_follow_the_field_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "psi", "--q", "7", "--mu", "1,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "[--q {2,3,4,5,8,9,25}]" in err
    assert err.endswith("loopzip verify: error: argument --q: invalid choice: 7 "
                        "(choose from 2, 3, 4, 5, 8, 9, 25)\n")
    assert run_cli(["witt-selftest", "--q", "4"], capsys) == (
        2, "", "configuration error: Witt selftest needs a prime --q\n")


def test_determinism_byte_identical(capsys):
    argv = ["verify", "--suite", "all", "--n", "2", "--q", "2", "--mu", "1,0",
            "--seed", "42", "--samples", "15"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_orbits_csv_sums_to_group_order(capsys):
    code, out, _ = run_cli(
        ["orbits", "--action", "zip-normal", "--n", "2", "--q", "2", "--mu", "1,0"],
        capsys,
    )
    assert code == 0
    rows = [r for r in out.strip().splitlines()[1:]]
    sizes = [int(r.rsplit(",", 1)[1]) for r in rows]
    assert sum(sizes) == 6


def test_orbits_class_census_json(capsys):
    code, out, _ = run_cli(
        ["orbits", "--action", "class-census", "--q", "2", "--mu", "1,0", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "3e70bba33732331b62f56ccb66172e7ccb1e7e85e154efb352d921e1d1203fd9")
    doc = json.loads(out)
    assert doc["schema"] == 1 and len(doc["census"]) == 9
    assert sum(row["orbit_size"] for row in doc["census"]) == 6 * 6


def test_orbits_class_census(capsys):
    code, out, _ = run_cli(
        ["orbits", "--action", "class-census", "--n", "2", "--q", "2", "--mu", "1,0"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,q,rep_g,rep_h,orbit_size"
    assert len(lines) - 1 == 9


def test_cartan_roundtrip(capsys, monkeypatch):
    matrix = {
        "n": 2,
        "ring": {"tag": "laurent", "p": 2, "m": 1},
        "entries": [
            [{"v": 1, "prec": 6, "coeffs": [[1], [0], [0], [0], [0]]},
             {"v": 0, "prec": 6, "coeffs": [[0]] * 6}],
            [{"v": 0, "prec": 6, "coeffs": [[0]] * 6},
             {"v": 0, "prec": 6, "coeffs": [[1], [0], [0], [0], [0], [0]]}],
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
    code, out, _ = run_cli(["cartan"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["d"] == [1, 0]
    # the identity factors reduce to the identity matrix
    a_const = [[cell["coeffs"][0] if cell["coeffs"] else [0]
                for cell in row] for row in result["a"]["entries"]]
    assert a_const == [[[1], [0]], [[0], [1]]]


def test_cartan_bad_input_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run_cli(["cartan"], capsys)
    assert code == 2
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"n":2,"ring":{"tag":"laurent","p":2,"m":1},'
                    '"entries":[[{"v":0},{"v":0}],[{"v":0},{"v":0}]]}'),
    )
    code, _, err = run_cli(["cartan"], capsys)
    assert code == 2
    assert "entry (1,1)" in err


_LAURENT_F2 = {"tag": "laurent", "p": 2, "m": 1}
_WITT_F2_N2 = {"tag": "wittfrac", "p": 2, "m": 1, "N": 2}


def _lau_cell(v, prec, codes):
    return {"v": v, "prec": prec, "coeffs": [[c] for c in codes]}


# (matrix, a fragment of the reason cartan gives for refusing it)
_MALFORMED = {
    "top-level-list": ([[1]], "malformed matrix header"),
    "fq-coefficient-7": (
        {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 1, [7])]]},
        "coefficient 7 outside 0..1"),
    "fq-coefficient-negative": (
        {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 1, [-1])]]},
        "coefficient -1 outside 0..1"),
    "witt-coordinate-5": (
        {"n": 1, "ring": _WITT_F2_N2, "entries": [[{"coords": [[5], [0]]}]]},
        "coefficient 5 outside 0..1"),
    "declared-n-mismatch": (
        {"n": 3, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 1, [1])] * 2] * 2},
        "declared n=3 does not match the entry rows"),
    "witt-denominator-beyond-length": (
        {"n": 1, "ring": _WITT_F2_N2, "entries": [[{"coords": [[1], [0]], "e": 2}]]},
        "denominator p^2 leaves no precision"),
    "n-zero-laurent": ({"n": 0, "ring": _LAURENT_F2, "entries": []},
                       "not a positive integer"),
    "n-zero-witt": ({"n": 0, "ring": _WITT_F2_N2, "entries": []},
                    "not a positive integer"),
    # JSON integers only: a bool or float is refused, not read as 0, 1 or 3
    "laurent-prec-float": (
        {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 3.0, [1, 0, 0])]]},
        "must be integers"),
    "laurent-v-bool": (
        {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(False, 2, [1, 0])]]},
        "must be integers"),
    "coefficient-bool": (
        {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 1, [True])]]},
        "coefficient True outside 0..1"),
    "header-p-float": (
        {"n": 1, "ring": dict(_LAURENT_F2, p=2.0), "entries": [[_lau_cell(0, 1, [1])]]},
        "p 2.0 is not an integer"),
    "header-m-bool": (
        {"n": 1, "ring": dict(_LAURENT_F2, m=True), "entries": [[_lau_cell(0, 1, [1])]]},
        "m True is not an integer"),
    "witt-N-bool": (
        {"n": 1, "ring": dict(_WITT_F2_N2, N=True), "entries": [[{"coords": [[1]]}]]},
        "N True is not an integer"),
    "witt-e-bool": (
        {"n": 1, "ring": _WITT_F2_N2, "entries": [[{"coords": [[1], [0]], "e": True}]]},
        "e True is not an integer"),
    # a Witt cell's own p and N must be the header's
    "witt-cell-p-mismatch": (
        {"n": 1, "ring": {"tag": "wittfrac", "p": 2, "m": 1, "N": 3},
         "entries": [[{"coords": [[1], [0], [1]], "e": 0, "p": 3, "N": 2}]]},
        "cell p=3 but the header has 2"),
    "witt-cell-N-mismatch": (
        {"n": 1, "ring": _WITT_F2_N2, "entries": [[{"coords": [[1], [0]], "p": 2, "N": 3}]]},
        "cell N=3 but the header has 2"),
    # decompositions live over the two loop rings; F_q has no ring tag
    "fq-ring-tag": (
        {"n": 2, "ring": {"tag": "fq", "p": 2, "m": 1}, "entries": [[[1], [0]], [[0], [1]]]},
        "bad matrix input: unknown ring tag 'fq'\n"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_cartan_rejects_malformed_input(capsys, monkeypatch, case):
    matrix, reason = _MALFORMED[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
    code, out, err = run_cli(["cartan"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("bad matrix input")
    assert reason in err


def test_cartan_witt_cells_may_omit_p_and_n(capsys, monkeypatch):
    cells = [[{"coords": [[0], [1], [0]], "e": 0}, {"coords": [[0], [0], [0]]}],
             [{"coords": [[0], [0], [0]]}, {"coords": [[1], [0], [0]]}]]
    outs = []
    for extra in ({}, {"p": 2, "N": 3}):
        matrix = {"n": 2, "ring": {"tag": "wittfrac", "p": 2, "m": 1, "N": 3},
                  "entries": [[dict(cell, **extra) for cell in row] for row in cells]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
        code, out, _ = run_cli(["cartan"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["d"] == [1, 0]


def _witt_json(p, m, length, cells):
    return {
        "n": len(cells),
        "ring": {"tag": "wittfrac", "p": p, "m": m, "N": length},
        "entries": [[{"N": length, "coords": coords, "e": e, "p": p}
                     for e, coords in row] for row in cells],
    }


# Inputs with p-factors in their denominators, and the decomposition the
# structure-polynomial implementation printed for them; the top
# coordinates that WittCtx.unshift sets to zero are part of the pinned bytes.
_WITT_CARTAN_CASES = {
    "F4-N3": (
        (2, 2, 3),
        [[(2, [[0, 0], [1, 1], [0, 1]]), (0, [[0, 1], [0, 1], [1, 1]])],
         [(0, [[1, 1], [1, 0], [1, 1]]), (1, [[0, 0], [0, 1], [1, 0]])]],
        [[(0, [[0, 0], [0, 0], [0, 0]]), (0, [[0, 1], [1, 1], [0, 0]])],
         [(0, [[1, 1], [1, 1], [0, 0]]), (0, [[0, 0], [0, 1], [1, 0]])]],
        [0, -1],
        [[(0, [[0, 0], [0, 0], [0, 0]]), (0, [[1, 0], [0, 0], [0, 0]])],
         [(0, [[1, 0], [0, 0], [0, 0]]), (0, [[0, 0], [1, 0], [1, 1]])]],
    ),
    "F3-N4": (
        (3, 1, 4),
        [[(2, [[0], [2], [1], [2]]), (0, [[1], [1], [0], [2]])],
         [(1, [[2], [0], [1], [1]]), (0, [[0], [0], [2], [1]])]],
        [[(0, [[0], [0], [0], [0]]), (0, [[2], [1], [2], [0]])],
         [(0, [[2], [1], [1], [2]]), (0, [[2], [0], [1], [1]])]],
        [0, -1],
        [[(0, [[0], [0], [0], [0]]), (0, [[1], [0], [0], [0]])],
         [(0, [[1], [0], [0], [0]]), (0, [[0], [2], [1], [1]])]],
    ),
}


@pytest.mark.parametrize("case", sorted(_WITT_CARTAN_CASES))
def test_cartan_witt_bytes_pinned(capsys, monkeypatch, case):
    from loopzip.witt import WittCtx

    ring, cells, a, d, b = _WITT_CARTAN_CASES[case]
    unshifts = []
    unshift = WittCtx.unshift

    def counted(self, v, k):
        if k:
            unshifts.append(k)
        return unshift(self, v, k)

    monkeypatch.setattr(WittCtx, "unshift", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_witt_json(*ring, cells))))
    code, out, _ = run_cli(["cartan"], capsys)
    assert code == 0
    assert unshifts
    expected = {"a": _witt_json(*ring, a), "d": d, "b": _witt_json(*ring, b)}
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("matrix", [
    # equal rows: singular
    {"n": 2, "ring": _LAURENT_F2,
     "entries": [[_lau_cell(0, 3, [1, 0, 0]), _lau_cell(0, 3, [1, 0, 0])]] * 2},
    # zero known to t^1 only, beside entries of valuation 2: no provable pivot
    {"n": 2, "ring": _LAURENT_F2,
     "entries": [[_lau_cell(0, 1, [0]), _lau_cell(2, 3, [1])],
                 [_lau_cell(2, 3, [1]), _lau_cell(0, 1, [0])]]},
    # over F4 with N=3 the determinant is not provably a unit in the known digits
    _witt_json(2, 2, 3, [[(1, [[0, 0], [1, 1], [0, 1]]), (0, [[1, 0], [0, 1], [1, 1]])],
                         [(0, [[0, 1], [1, 0], [1, 1]]), (2, [[0, 0], [0, 0], [1, 0]])]]),
], ids=["laurent-singular", "laurent-precision", "witt-F4-N3-minor"])
def test_cartan_undecomposable_matrix_exit_2(capsys, monkeypatch, matrix):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
    code, out, err = run_cli(["cartan"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("bad matrix input: ")


@pytest.mark.parametrize("matrix", [
    # 4 J over W_3(F_2): the products of unstripped entries once claimed a
    # digit they did not have, and cartan printed d = [2, 2]
    _witt_json(2, 1, 3, [[(0, [[0], [0], [1]])] * 2] * 2),
    # its Laurent twin, t^2 J at prec 3
    {"n": 2, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 3, [0, 0, 1])] * 2] * 2},
], ids=["witt-4J", "laurent-t2J"])
def test_cartan_rank_one_multiple_of_the_uniformizer_exit_2(capsys, monkeypatch, matrix):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
    code, out, err = run_cli(["cartan"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("bad matrix input: remaining minor is zero within precision")


def test_verify_prec_below_mu_exit_2_before_suites(capsys, monkeypatch):
    import loopzip.cli as cli

    def no_suites(names, cfg):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suites", no_suites)
    for argv in (["--suite", "prozip", "--mu", "1,0", "--prec", "1"],
                 ["--suite", "all", "--mu", "2,1,0", "--prec", "2"]):
        code, out, err = run_cli(["verify"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert "cannot represent t^" in err


def test_budget_message_names_engine_and_caps(capsys):
    code, out, err = run_cli(
        ["orbits", "--action", "zip-normal", "--mu", "1,0,0", "--q", "5"], capsys
    )
    assert code == 2
    assert out == ""
    assert ("GL_3 enumeration at n=3, q=5 lists 1,488,000 matrices; "
            "the caps are 600,000 matrices") in err
    # every exhaustive engine names itself, the requested size and its caps
    for argv, engine, size, caps in [
        (["verify", "--suite", "psi", "--mu", "1,0,0", "--q", "4"],
         "class census", "n=3, q=4 classifies 238,140 classes", "33,000 points classified"),
        (["verify", "--suite", "witt", "--mu", "1,0", "--q", "8"],
         "mixed census", "n=2, q=8 classifies 12,446,784 pairs", "33,000 points classified"),
        (["orbits", "--action", "sigma-conj", "--mu", "1,0,0", "--q", "4"],
         "class census", "n=3, q=4 classifies 238,140 classes", "33,000 points classified"),
        (["orbits", "--action", "class-census", "--mu", "0,0,0", "--q", "4"],
         "class census", "n=3, q=4 classifies 181,440 classes", "33,000 points classified"),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"configuration error: {engine} at {size}; the caps are {caps}\n"


def test_poset_dot(capsys):
    code, out, _ = run_cli(["poset", "--n", "3", "--mu", "1,1,0"], capsys)
    assert code == 0
    assert out.count(";") >= 3
    node_lines = [l for l in out.splitlines() if l.strip().endswith(";") and "->" not in l]
    assert len(node_lines) == 3


def test_poset_refuses_n7_with_distinct_weights_before_listing(capsys):
    # (7!)^2 = 25,401,600 Bruhat tests: refused before any permutation is listed
    import time

    start = time.perf_counter()
    code, out, err = run_cli(["poset", "--mu", "6,5,4,3,2,1,0"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("configuration error: coset order at n=7, J=[] makes 25,401,600 Bruhat "
                   "tests; the caps are 600,000 Bruhat tests\n")


def test_witt_selftest(capsys):
    code, out, _ = run_cli(
        ["witt-selftest", "--q", "2", "--prec", "3", "--samples", "50"], capsys
    )
    assert code == 0
    assert "50/50" in out
    code, _, _ = run_cli(["witt-selftest", "--q", "4"], capsys)
    assert code == 2  # p must be prime


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "prozip", "--mu", "1,0"],
    ["witt-selftest", "--q", "2"],
], ids=["verify", "witt-selftest"])
def test_non_positive_samples_exit_2(capsys, argv, samples):
    # zero samples would pass vacuously, a negative count is meaningless
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--samples", samples])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_failed_check_exits_1(capsys, monkeypatch):
    import loopzip.cli as cli

    def fake_run_suites(names, cfg):
        return {"schema": 1, "config": {}, "suites": list(names),
                "checks": [{"suite": "x", "name": "forced", "passed": False}],
                "passed": False}

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(
        ["verify", "--suite", "weyl", "--q", "2", "--mu", "1,0"], capsys
    )
    assert code == 1


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "weyl", "--q", "2", "--mu", "1,0",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,passed"
    assert all(line.endswith("True") for line in lines[1:])


def test_orbits_json_format(capsys):
    code, out, _ = run_cli(
        ["orbits", "--action", "zip-normal", "--q", "2", "--mu", "1,0",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 6
    assert sum(o["size"] for o in doc["orbits"]) == 6


def test_poset_json_format(capsys):
    code, out, _ = run_cli(
        ["poset", "--mu", "1,1,0", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 3


def test_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--suite", "weyl", "--q", "2", "--mu", "1,0",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["passed"]


# stdout SHA-256 of canonical-form reports, pinned so that a change of the
# canonical pair shows up in the unit tests and not only in benchmark digests;
# the lemma and prozip reports pin the subgroup samplers, which no benchmark
# workload runs
PINNED_STDOUT = [
    (["orbits", "--action", "class-census", "--q", "4", "--mu", "1,0"],
     "70620e4ed2e27784f7f31ebb9256e0c2c675ffee5517775d108e0b3d5611d1eb"),
    (["orbits", "--action", "class-census", "--q", "2", "--mu", "1,1,0"],
     "4d6887af46fd643a3edaa4dd3be3680faf2c847617c744d0ba7facd065fbeecb"),
    (["orbits", "--action", "sigma-conj", "--q", "4", "--mu", "1,0"],
     "606641e19b6602463055b2fc9d28e2a1afe228fb317daf32914f3e4bb0e8a9ae"),
    (["orbits", "--action", "sigma-conj", "--q", "2", "--mu", "1,1,0"],
     "ce75e3624b77dab9d4ddbe8262d56315afaa5fc57442b210397dfa4b7694eac7"),
    (["verify", "--suite", "chain", "--mu", "1,0", "--q", "4", "--seed", "0"],
     "f0c8321d5a9c3e5b597972369aea664206b229018bc11936750cffd9c4b39b35"),
    (["verify", "--suite", "lemmas", "--mu", "2,0", "--q", "2", "--samples", "20"],
     "7df0d7443ef99737336670087d5847938a783464c66497f4e58517f4c0cbf7c0"),
    (["verify", "--suite", "lemmas", "--mu", "1,1,0", "--q", "3", "--samples", "20"],
     "1918924231e46e1062c8c45ae3a0503df965089f8d80d779dee0ba159f207683"),
    (["verify", "--suite", "prozip", "--mu", "1,-1", "--q", "2", "--samples", "20"],
     "98fec9cfccb11898d60a8a38fdac971df095b6677867190eedef99145da9724f"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_STDOUT,
    ids=[f"{argv[2]}-q{argv[argv.index('--q') + 1]}-mu{argv[argv.index('--mu') + 1]}"
         for argv, _ in PINNED_STDOUT],
)
def test_canonical_report_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mu", ["2,0", "3,0", "1,-1"])
def test_verify_lemmas_wide_gap_passes(mu, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "lemmas", "--q", "2", "--mu", mu, "--samples", "5"], capsys
    )
    assert code == 0, err
    gap = int(mu.split(",")[0]) - int(mu.split(",")[1])
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert f"integral-conjugation-inclusions-exhaustive-N{gap + 1}" in names
    assert f"integral-conjugation-inclusions-exhaustive-N{gap + 2}" in names


@pytest.mark.parametrize("mu,q,skipped", [
    ("3,0", "2", False), ("4,0", "2", True), ("5,0", "2", True), ("0,0", "2", True),
    ("1,0", "3", True), ("1,0,0", "2", True),
])
def test_lemmas_note_their_skipped_exhaustive_checks(mu, q, skipped, capsys):
    # one stderr line says that the exhaustive checks did not run; the exit code does not
    code, out, err = run_cli(
        ["verify", "--suite", "lemmas", "--q", q, "--mu", mu, "--samples", "5"], capsys
    )
    assert code == 0 and json.loads(out)["passed"]
    exhaustive = [c for c in json.loads(out)["checks"] if "exhaustive-N" in c["name"]]
    assert (err, len(exhaustive)) == ((LEMMA_NOTE, 0) if skipped else ("", 2))


@pytest.mark.parametrize("suite,mu,q,prec", [
    ("psi", "1,-1", "2", "2"),
    ("psi", "1,-1", "2", "12"),
    ("witt", "1,-1", "2", "6"),
    ("psi", "0,-1", "2", "6"),
    ("psi", "1,0,-1", "2", "6"),
    ("psi", "2,-1", "2", "6"),
    ("psi", "1,-1", "3", "6"),
])
def test_negative_weights_pass(suite, mu, q, prec, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", suite, "--mu", mu, "--q", q, "--prec", prec,
         "--samples", "5"], capsys
    )
    assert code == 0, err
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("suite,prec,message", [
    ("prozip", "2", "multiplication of an empty window"),
    ("prozip", "3", "no overlap window in invariance check"),
    ("lemmas", "2", "prec < 1, constant term unknown"),
])
def test_precision_error_exits_2(suite, prec, message, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", suite, "--mu", "1,-1", "--q", "2", "--prec", prec,
         "--samples", "5"], capsys
    )
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_sampler_window_past_the_precision_exits_2(capsys):
    # the sampler of g with integral mu-conjugate draws an entry from t^10, the
    # weight gap of mu, so it refuses window 6 and names both numbers
    code, out, err = run_cli(["verify", "--suite", "prozip", "--mu", "5,-5", "--prec", "6"],
                             capsys)
    assert code == 2
    assert out == "" and err == (
        "configuration error: drawing g with integral mu-conjugate needs entries divisible "
        "by t^10, the weight gap of mu, beyond precision 6\n")


@pytest.mark.parametrize("q,mu", [("5", "1,0"), ("2", "1,1,0"), ("2", "2,0")])
def test_witt_suite_without_its_census_exits_2(q, mu, capsys):
    # the ghost checks alone would pass while the mixed census never ran
    code, out, err = run_cli(
        ["verify", "--suite", "witt", "--q", q, "--mu", mu, "--samples", "5"], capsys
    )
    assert code == 2
    assert out == "" and "mixed census" in err


@pytest.mark.parametrize("mu,digest,noted", [
    ("1,1,0", "4e1392f0391b3ae623ae34ac56ff7880096eae98a65002e658af1076c350e13f", True),
    ("1,0", "fe51d9c1ace3c233ca758a5318d686785beb2ebf0a7c1efea807cc503d4b5e93", False),
], ids=["mu1,1,0", "mu1,0"])
def test_suite_all_notes_a_skipped_witt_census(mu, digest, noted, capsys):
    # the report is unchanged; only stderr says that the census did not run
    code, out, err = run_cli(
        ["verify", "--suite", "all", "--q", "2", "--mu", mu, "--samples", "5"], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    note = ("note: suite witt ran without its mixed census: the mixed census of suite "
            "witt needs p in {2, 3}, n <= 2 and weights with |d_i| <= 1\n")
    # n = 3 also skips the exhaustive lemma checks, and says so first
    assert err == (LEMMA_NOTE + note if noted else "")


def test_every_cli_option_is_read(capsys, monkeypatch):
    # an option that its command never reads is accepted and silently ignored
    import argparse

    from loopzip import cli

    argvs = [
        ("verify", ["--suite", "weyl", "--mu", "1,0"]),
        *(("orbits", ["--action", action, "--mu", "1,0"])
          for action in ("zip-normal", "zip-frobenius", "partial-frobenius", "sigma-conj",
                         "class-census")),
        ("cartan", []),
        ("poset", ["--mu", "1,0"]),
        ("witt-selftest", ["--samples", "5"]),
    ]
    handlers = {"verify": cli.cmd_verify, "orbits": cli.cmd_orbits, "cartan": cli.cmd_cartan,
                "poset": cli.cmd_poset, "witt-selftest": cli.cmd_witt_selftest}
    identity = {"n": 1, "ring": _LAURENT_F2, "entries": [[_lau_cell(0, 2, [1, 0])]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(identity)))
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted({c for c, _ in argvs}) == sorted(commands.choices) == sorted(handlers)
    orbit_actions = next(a for a in commands.choices["orbits"]._actions if a.dest == "action")
    assert sorted(a[1] for c, a in argvs if c == "orbits") == sorted(orbit_actions.choices)
    unread = []
    for command, argv in argvs:
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = parser.parse_args([command] + argv, namespace=Recorder())
        reads.clear()
        assert handlers[command](args) == 0
        dests = {a.dest for a in commands.choices[command]._actions} - {"help"}
        unread += [f"{' '.join([command] + argv[:2])} {dest}" for dest in sorted(dests - reads)]
    capsys.readouterr()
    assert unread == []


def test_class_census_refuses_tau(capsys):
    # the class census has no Frobenius twist, so a --tau would be ignored
    argv = ["orbits", "--action", "class-census", "--mu", "1,0"]
    code, out, err = run_cli(argv + ["--tau", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "configuration error: orbits --action class-census takes no --tau\n"
    assert run_cli(argv, capsys)[0] == 0


@pytest.mark.parametrize("argv,code,err", [
    (["verify", "--suite", "lemmas", "--mu", "2,2,0,0"], 0, LEMMA_NOTE),
    (["verify", "--suite", "prozip", "--mu", "1,1,0,0", "--samples", "20"], 0, ""),
    (["verify", "--suite", "psi", "--mu", "1,1,0,0"], 2,
     "configuration error: class census at n=4, q=2 classifies 44,100 classes; "
     "the caps are 33,000 points classified\n"),
    (["verify", "--suite", "chain", "--mu", "1,1,0,0"], 2,
     "configuration error: class census at n=4, q=2 classifies 44,100 classes; "
     "the caps are 33,000 points classified\n"),
    (["verify", "--suite", "weyl", "--mu", "1,1,0,0"], 2,
     "configuration error: class census at n=4, q=2 classifies 44,100 classes; "
     "the caps are 33,000 points classified\n"),
], ids=["lemmas", "prozip", "psi", "chain", "weyl"])
def test_gl4_suites(argv, code, err, capsys):
    # the F_q kernel has no size limit: GL_4 runs wherever the suite budgets allow
    got, out, got_err = run_cli(argv, capsys)
    assert (got, got_err) == (code, err)
    assert json.loads(out)["passed"] if code == 0 else out == ""


def test_weyl_budget_refuses_before_exhaustive_checks(capsys, monkeypatch):
    import loopzip.suites as suites

    def no_bruhat(*args):
        raise AssertionError("an exhaustive Weyl check ran")

    monkeypatch.setattr(suites, "bruhat_leq", no_bruhat)
    code, out, err = run_cli(["verify", "--suite", "weyl", "--mu", "1,0,0,0"], capsys)
    assert (code, out) == (2, "")
    assert err == ("configuration error: class census at n=4, q=2 classifies 37,800 "
                   "classes; the caps are 33,000 points classified\n")


def test_class_census_budget_exit_2_before_enumerating(capsys, monkeypatch):
    import loopzip.coset as coset

    def no_enumeration(*args):
        raise AssertionError("the class census enumerated G")

    monkeypatch.setattr(coset, "enumerate_gl_flat", no_enumeration)
    code, out, err = run_cli(["orbits", "--action", "class-census", "--mu", "1,1,0,0",
                              "--q", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == ("configuration error: class census at n=4, q=2 classifies 44,100 "
                   "classes; the caps are 33,000 points classified\n")


def test_lemmas_run_on_a_zip_group_too_large_to_list(capsys):
    # the zip group of GL_3(F_8) at (1, 0, 0) has 101,154,816 elements; the
    # rescaling check compares generating sets and lists none of them
    code, out, err = run_cli(["verify", "--suite", "lemmas", "--mu", "1,0,0", "--q", "8"],
                             capsys)
    assert (code, err) == (0, LEMMA_NOTE)
    assert json.loads(out)["passed"]
