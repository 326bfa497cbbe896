"""End-to-end command line checks, all in-process through main(argv)."""

import contextlib
import io
import json
import tempfile
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkit import Face, SimplicialComplex
from shiftkit import cli, engine
from shiftkit.cli import format_complex, main, parse_complex_text
from shiftkit.field import DEFAULT_PRIME
from shiftkit.suites import SUITES

TWO_EDGES = "1 2\n3 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shift_output_parses_back_to_the_frozen_shift(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    code, out, _ = run(capsys, "shift", src)
    assert code == 0
    D = parse_complex_text(out)
    assert D == SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [4]])
    assert "shifted=True" in out


def test_shift_json_is_deterministic(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    code, first, _ = run(capsys, "shift", src, "--json")
    assert code == 0
    code, second, _ = run(capsys, "shift", src, "--json")
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["schema"] == 1
    assert report["f_vector"] == [1, 4, 2]
    assert report["betti"] == [0, 1, 0]
    assert report["validated"] == {"is_shifted": True, "f_vector_preserved": True}
    assert report["retries"] == 0


def test_block_shift_pipes_into_generic_shift(tmp_path, capsys, monkeypatch):
    non = {frozenset((1, 4)), frozenset((2, 5)), frozenset((3, 6))}
    lines = [
        " ".join(map(str, e))
        for e in combinations(range(1, 7), 2)
        if frozenset(e) not in non
    ]
    src = write(tmp_path, "oct.cx", "\n".join(lines) + "\n")
    code, block_out, _ = run(capsys, "shift", src, "--matrix", "block:3,3")
    assert code == 0
    assert "shifted=False" in block_out

    monkeypatch.setattr("sys.stdin", io.StringIO(block_out))
    code, out, _ = run(capsys, "shift", "-")
    assert code == 0
    D = parse_complex_text(out)
    assert Face.of(4, 5) in D.face_set()


def test_explicit_matrix_identity_returns_input(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    mat = write(
        tmp_path, "eye.mat", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
    )
    code, out, _ = run(capsys, "shift", src, "--matrix", f"explicit:{mat}", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["validated"]["is_shifted"] is False
    assert report["betti"] is None
    assert sorted(report["facets"]) == [[1, 2], [3, 4]]


def test_explicit_matrix_must_be_square_and_nonsingular(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    singular = write(tmp_path, "s.mat", "\n".join(["1 1 1 1"] * 4) + "\n")
    code, _, err = run(capsys, "shift", src, "--matrix", f"explicit:{singular}")
    assert code == 1 and "singular" in err
    small = write(tmp_path, "t.mat", "1 0\n0 1\n")
    code, _, err = run(capsys, "shift", src, "--matrix", f"explicit:{small}")
    assert code == 1 and "4x4" in err


def test_bad_matrix_token_names_file_and_line(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    mat = write(tmp_path, "m.mat", "# a comment\n1 0 0 0\n\n0 x 0 0\n")
    code, out, err = run(capsys, "shift", src, "--matrix", f"explicit:{mat}")
    assert code == 1 and out == ""
    assert err == f"error: {mat}:4: not a matrix row: '0 x 0 0'\n"


def test_parse_errors_exit_one(tmp_path, capsys):
    cases = {
        "words.cx": "1 two\n",
        "dup.cx": "1 1 2\n",
        "neg.cx": "0 1\n",
        "low.cx": "n=2\n1 2 3\n",
        "blank.cx": "# nothing here\n",
    }
    for name, text in cases.items():
        src = write(tmp_path, name, text)
        code, _, err = run(capsys, "shift", src)
        assert code == 1, name
        assert "error:" in err, name


def test_out_of_range_labels_name_the_line(tmp_path, capsys):
    cases = {
        "high.cx": ("1 2\n1 70\n", ":2: label 70 outside 1..64"),
        "wide.cx": ("n=100\n1 2\n", ":1: n=100 outside 0..64"),
        "neg.cx": ("# below zero\nn=-2\n1 2\n", ":2: n=-2 outside 0..64"),
        "low.cx": ("1 2\nn=1\n", ":2: n=1 is below the largest label 2"),
        "twice.cx": ("n=1\n# again\nn=3\n1 2\n", ":3: repeated n= line (first at line 1)"),
    }
    for name, (text, message) in cases.items():
        src = write(tmp_path, name, text)
        code, out, err = run(capsys, "shift", src)
        assert (code, out) == (1, ""), name
        assert err == f"error: {src}{message}\n", name
    assert parse_complex_text("n=64\n1 64\n").n == 64
    assert parse_complex_text("n=0\nempty\n").n == 0


def test_bad_block_spec_names_the_problem(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    for spec in ("block:1,x", "block:2", "block:1,2,1", "block:"):
        code, out, err = run(capsys, "shift", src, "--matrix", spec)
        assert (code, out) == (1, ""), spec
        assert err == "error: block spec must be block:<k>,<l> with integer sizes\n", spec


def test_bad_face_token_names_the_flag(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    for cmd in ("link", "antistar"):
        code, out, err = run(capsys, "op", cmd, src, "--face", "a")
        assert (code, out) == (1, ""), cmd
        assert err == "error: --face must list vertex labels, got 'a'\n", cmd
    code, _, err = run(capsys, "op", "link", src, "--face", "0")
    assert (code, err) == (1, "error: vertex 0 outside 1..64\n")


def test_face_with_a_repeated_label_is_refused(tmp_path, capsys):
    # as a facet line with a repeated label is refused, not read as a smaller face
    src = write(tmp_path, "b.cx", TWO_EDGES)
    for cmd in ("link", "antistar"):
        code, out, err = run(capsys, "op", cmd, src, "--face", "1 1")
        assert (code, out) == (1, ""), cmd
        assert err == "error: --face repeats a label, got '1 1'\n", cmd


def test_huge_facet_line_is_refused_before_expansion(tmp_path, capsys):
    # 18 labels would expand to 262,144 faces (seconds, 100+ MB)
    src = write(tmp_path, "big.cx", "1 2\n" + " ".join(map(str, range(1, 19))) + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "op", "compare", src, src)
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert err.startswith(f"error: {src}:2: facets expand to more than 65536 faces")


def test_facet_budget_sums_over_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_FACET_FACES", 9)
    assert parse_complex_text("1 2\n3 4\nempty\n").f_vector == (1, 4, 2)  # 4 + 4 + 1
    with pytest.raises(ValueError, match="^f.cx:4: facets expand"):
        parse_complex_text("1 2\n# 3 4 5\n3 4\n5\n", "f.cx")  # 4 + 4 + 2


@given(
    st.lists(st.sets(st.integers(1, 8), max_size=5), min_size=1, max_size=6),
    st.integers(0, 8),
)
def test_format_then_parse_round_trips(facets, n):
    # the contract behind `shift | shift -`: printed complexes parse back
    top = max((max(f) for f in facets if f), default=0)
    K = SimplicialComplex.from_facets(max(n, top), facets)
    assert parse_complex_text(format_complex(K)) == K


# Labels stay <= 9 and lines hold at most 8 tokens: a facet with k labels
# makes from_facets build all 2^k of its faces, and lines up to the
# MAX_FACET_FACES budget (one 16-label line) still parse, at ~1 s each.
_TOKEN = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from(["empty", "#", "n=", "n=3", "n=70", "x", "1.5", "1,2", "+2"]),
)
_LINE = st.one_of(
    st.sets(st.integers(1, 9), max_size=8).map(lambda f: " ".join(map(str, f))),
    st.lists(_TOKEN, max_size=8).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=8),
)


@settings(deadline=None)
@given(st.lists(_LINE, max_size=6))
def test_malformed_input_exits_cleanly(lines):
    # any text gives exit 0, or exit 1 with an error line; never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cx"
        path.write_text("\n".join(lines), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["op", "compare", str(path), str(path)])
    if code == 0:
        assert out.getvalue() == "relation: equal\n"
    else:
        assert code == 1 and err.getvalue().startswith("error: ")


def test_header_comments_and_empty_literal(tmp_path, capsys):
    src = write(tmp_path, "e.cx", "# just the empty face\nempty\n")
    code, out, _ = run(capsys, "op", "betti", src, "--json")
    assert code == 0
    assert json.loads(out)["betti"] == [1]

    src = write(tmp_path, "pad.cx", "n=3\n1 2\n")
    code, out, _ = run(capsys, "op", "betti", src, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["betti"] == [0, 0, 0]


def test_op_compare(tmp_path, capsys):
    b = write(tmp_path, "b.cx", TWO_EDGES)
    d = write(tmp_path, "d.cx", "n=4\n1 2\n1 3\n4\n")
    code, out, _ = run(capsys, "op", "compare", b, d)
    assert code == 0 and out == "relation: greater\n"
    code, out, _ = run(capsys, "op", "compare", d, b)
    assert code == 0 and out == "relation: less\n"


def test_op_construction_and_rules(tmp_path, capsys):
    e = write(tmp_path, "e.cx", "1 2\n")
    code, out, _ = run(capsys, "op", "cone", e)
    assert code == 0
    assert parse_complex_text(out) == SimplicialComplex.from_facets(3, [[1, 2, 3]])

    code, out, _ = run(capsys, "op", "dushift", e, e)
    assert code == 0
    D = parse_complex_text(out)
    assert D == SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [4]])

    tri = write(tmp_path, "tri.cx", "1 2 3\n")
    code, out, _ = run(capsys, "op", "clique-sum", tri, tri, "--dim", "1")
    assert code == 0
    assert parse_complex_text(out) == SimplicialComplex.from_facets(
        4, [[1, 2, 3], [1, 2, 4]]
    )


def test_op_usage_errors(tmp_path, capsys):
    e = write(tmp_path, "e.cx", "1 2\n")
    assert run(capsys, "op", "cone", e, e)[0] == 1
    assert run(capsys, "op", "union", e)[0] == 1
    assert run(capsys, "op", "link", e)[0] == 1
    assert run(capsys, "op", "clique-sum", e, e)[0] == 1
    code, _, err = run(capsys, "op", "dushift", e, e.replace("e.cx", "missing.cx"))
    assert code == 1 and "error:" in err


def test_op_checks_operands_and_flags_before_reading(tmp_path, capsys, monkeypatch):
    e = write(tmp_path, "e.cx", "1 2\n")
    code, out, err = run(capsys, "op", "cone", e, "--face", "1")
    assert code == 1 and out == ""
    assert err == "error: cone takes no --face\n"
    assert run(capsys, "op", "link", e, "--face", "1", "--dim", "1")[0] == 1
    # no construction or rule draws anything, so a seed is refused too
    code, out, err = run(capsys, "op", "cone", e, "--seed", "9")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --seed" in err
    # only betti computes mod p, so every other kind refuses a prime
    for prime in ("7", str(DEFAULT_PRIME)):
        code, out, err = run(capsys, "op", "cone", e, "--prime", prime)
        assert code == 1 and out == ""
        assert err == "error: cone takes no --prime\n"
    code, out, _ = run(capsys, "op", "betti", e, "--prime", "7", "--json")
    assert code == 0 and json.loads(out)["prime"] == 7
    stdin = io.StringIO(TWO_EDGES)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "op", "cone", "-", e)
    assert code == 1 and out == ""
    assert err.startswith("error: cone takes one complex")
    assert stdin.tell() == 0  # refused before anything was read
    code, out, err = run(capsys, "op", "cone", "-", "--prime", "7")
    assert code == 1 and out == ""
    assert err == "error: cone takes no --prime\n"
    assert stdin.tell() == 0


def test_stdin_is_refused_for_two_operands(tmp_path, capsys, monkeypatch):
    stdin = io.StringIO(TWO_EDGES)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "op", "compare", "-", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: stdin can be read once")
    assert stdin.tell() == 0  # refused before anything was read
    e = write(tmp_path, "e.cx", TWO_EDGES)
    code, out, _ = run(capsys, "op", "compare", "-", e)
    assert code == 0 and out == "relation: equal\n"


def test_changed_face_counts_exit_two(tmp_path, capsys, monkeypatch):
    real = engine._shift_family

    def drop_top_face(K, A):
        D = real(K, A)
        top = D.faces_of_size(len(D.f_vector) - 1)
        return SimplicialComplex(D.n, set(D.face_set()) - {top[-1]})

    monkeypatch.setattr(engine, "_shift_family", drop_top_face)
    src = write(tmp_path, "b.cx", TWO_EDGES)
    code, out, err = run(capsys, "shift", src, "--seed", "5", "--prime", "101")
    assert code == 2 and out == ""
    assert err.startswith("error: face counts changed")
    assert "GenericSpec(seed=5)" in err and "p=101" in err


def test_exhausted_reseeds_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(SimplicialComplex, "is_shifted", lambda self: False)
    src = write(tmp_path, "e.cx", "1 2\n")
    code, out, err = run(capsys, "shift", src, "--seed", "5", "--retries", "2")
    assert code == 2 and out == ""
    assert err == "error: output not shifted after 2 reseeds of GenericSpec(seed=5)\n"


def test_verify_named_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "counterexample", "--trials", "2")
    assert code == 0
    assert "suite counterexample: 4/4 ok" in out


def test_verify_json_aggregate(capsys):
    code, out, _ = run(
        capsys, "verify", "betti", "--trials", "3", "--max-n", "6", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["suites"][0]["suite"] == "betti"
    assert report["suites"][0]["passed"] == report["suites"][0]["total"]
    # every suite runs its body: join-top has no other caller in the tests
    code, out, _ = run(capsys, "verify", "all", "--trials", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [s["suite"] for s in report["suites"]] == sorted(SUITES)
    assert all(s["passed"] == s["total"] > 0 for s in report["suites"])


def test_verify_one_suite_reproduces_its_part_of_all(capsys):
    # each suite's stream is seeded by its name, so alone it draws what it draws in `all`
    argv = ("--trials", "3", "--seed", "5", "--json")
    code, out, _ = run(capsys, "verify", "all", *argv)
    assert code == 0
    together = json.loads(out)["suites"]
    assert [s["suite"] for s in together] == sorted(SUITES)
    for entry in together:
        code, out, _ = run(capsys, "verify", entry["suite"], *argv)
        assert code == 0
        assert json.loads(out)["suites"] == [entry], entry["suite"]


# (suite, label, ok, detail) of `verify all --trials 2 --seed 3`
VERIFY_ALL_CHECKS = [
    ("betti", "inst-00", True, "n=5 betti=(0, 0, 0, 0)"),
    ("betti", "inst-01", True, "n=2 betti=(0, 0, 0)"),
    ("clique-sum", "glue-00", True, "d=-1 sigma=() n=7"),
    ("clique-sum", "glue-01", True, "d=1 sigma=(1, 2) n=8"),
    ("cone", "cone-00", True, "n=4 f=(1, 4, 6, 4, 1)"),
    ("cone", "cone-01", True, "n=6 f=(1, 6, 12, 11, 5, 1)"),
    ("counterexample", "shift-of-suspension-extra", True, "126"),
    ("counterexample", "suspension-of-shift-extra", True, "134"),
    ("counterexample", "f-vectors-agree", True, "(1, 6, 10, 4)"),
    ("counterexample", "strictly-lex-smaller", True, "less"),
    ("disjoint-union", "pair-00", True, "n=4+1 f=(1, 2)"),
    ("disjoint-union", "pair-01", True, "n=2+3 f=(1, 4, 1)"),
    ("idempotence", "inst-00", True, "n=8 f=(1, 6, 12, 9, 2)"),
    ("idempotence", "inst-01", True, "n=5 f=(1, 5, 6, 2)"),
    ("join-top", "pair-00", True, "i=1 0==0"),
    ("join-top", "pair-01", True, "i=0 1==1"),
    ("kernel-dims", "inst-00", True, "n=7 S=(5, 7) i=1"),
    ("kernel-dims", "inst-01", True, "n=7 S=(5,) i=1"),
    ("kernel-dims", "complete-image-h1", True, "7 cells"),
    ("kernel-dims", "complete-image-h2", True, "15 cells"),
    ("kernel-dims", "complete-image-h3", True, "31 cells"),
    ("kernel-dims", "complete-image-h4", True, "63 cells"),
    ("kernel-dims", "complete-image-h5", True, "127 cells"),
    ("near-cone", "nc-00", True, "n=6 depth=5"),
    ("near-cone", "nc-01", True, "n=6 depth=1"),
    ("near-cone", "full-chain-00", True, "depth=6"),
    ("sarkaria", "nc-00", True, "n=3 dim=1"),
    ("sarkaria", "nc-01", True, "n=7 dim=4"),
    ("sqcup", "pair-00", True, "n=1+1"),
    ("sqcup", "pair-01", True, "n=1+4"),
    ("union-eq1", "pair-00", True, "n=3 depth=4 bases=0"),
    ("union-eq1", "pair-01", True, "n=8 depth=3 bases=26"),
]


def test_verify_all_checks_are_golden(capsys):
    code, out, _ = run(capsys, "verify", "all", "--trials", "2", "--seed", "3", "--json")
    assert code == 0
    got = [
        (s["suite"], c["label"], c["ok"], c["detail"])
        for s in json.loads(out)["suites"]
        for c in s["checks"]
    ]
    assert got == VERIFY_ALL_CHECKS


def test_verify_reports_a_validation_failure_as_a_failed_check(capsys):
    # at p = 7 some generic shifts stay unshifted after every reseed; each
    # such draw becomes one failed check naming the suite, the draw and the
    # seed, its suite goes on with the next draw, every later suite still
    # runs, and --json still prints the whole report
    code, out, err = run(capsys, "verify", "all", "--trials", "10", "--seed", "2", "--json", "--prime", "7")
    assert code == 2 and err == ""
    report = json.loads(out)
    assert report["ok"] is False and report["prime"] == 7
    assert [s["suite"] for s in report["suites"]] == sorted(SUITES)
    failed = {
        s["suite"]: c["detail"]
        for s in report["suites"]
        for c in s["checks"]
        if c["label"] == "validation-failure"
    }
    assert set(failed) == {"cone", "idempotence", "union-eq1"}
    assert failed["cone"] == (
        "cone draw 1 at seed 2: output not shifted after 3 reseeds of GenericSpec(seed=3566198980)"
    )
    for s in report["suites"]:
        assert s["passed"] == sum(c["ok"] for c in s["checks"]) and s["total"] == len(s["checks"])
        assert s["ok"] == (s["suite"] not in failed and s["passed"] == s["total"])


SMALL_PRIME_RUN = ("--trials", "10", "--seed", "2", "--json", "--prime", "7")


def test_verify_at_a_small_prime_reports_one_check_per_draw(capsys):
    # every suite goes on past its failed draws: one check per draw of each
    # phase, and each first failure reads as when a failure ended its suite
    code, out, _ = run(capsys, "verify", "all", *SMALL_PRIME_RUN)
    assert code == 2
    suites = json.loads(out)["suites"]
    totals = {s["suite"]: s["total"] for s in suites}
    fixed = {"near-cone": 12, "kernel-dims": 15, "counterexample": 4}
    assert totals == {**dict.fromkeys(SUITES, 10), **fixed}
    failed = {
        s["suite"]: [c["detail"] for c in s["checks"] if c["label"] == "validation-failure"]
        for s in suites
    }
    stuck = "output not shifted after 3 reseeds of GenericSpec(seed={})"
    assert {name: details for name, details in failed.items() if details} == {
        "cone": ["cone draw 1 at seed 2: " + stuck.format(3566198980)],
        "idempotence": ["idempotence draw 8 at seed 2: " + stuck.format(615898105)],
        "union-eq1": [
            "union-eq1 draw 2 at seed 2: " + stuck.format(1141204426),
            "union-eq1 draw 8 at seed 2: " + stuck.format(2094042489),
        ],
    }


def test_verify_one_suite_reproduces_its_part_of_verify_all_past_a_failed_draw(capsys):
    _, out, _ = run(capsys, "verify", "all", *SMALL_PRIME_RUN)
    parts = {s["suite"]: s for s in json.loads(out)["suites"]}
    for name in ("cone", "idempotence", "union-eq1"):
        code, out, _ = run(capsys, "verify", name, *SMALL_PRIME_RUN)
        assert code == 2
        assert json.loads(out)["suites"] == [parts[name]], name


def test_verify_guards(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 1 and "unknown suite" in err
    code, _, err = run(capsys, "verify", "betti", "--max-n", "20")
    assert code == 1 and "--force" in err
    # counts that would do no work or draw from an empty range
    refused = [
        ("verify", "all", "--trials", "-5"),
        ("verify", "all", "--trials", "0"),
        ("verify", "union-eq1", "--max-n", "1"),
        ("explore", "--trials", "-1"),
        ("explore", "--trials", "0"),
        ("explore", "--max-n", "0"),
        ("shift", write(tmp_path, "b.cx", TWO_EDGES), "--retries", "-1"),
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert code == 1 and "error:" in err and not out, argv
    assert "error: --trials 0 is below 1" in run(capsys, "explore", "--trials", "0")[2]
    # the smallest sizes each command draws are accepted
    assert run(capsys, "verify", "union-eq1", "--max-n", "2", "--trials", "2")[0] == 0
    assert run(capsys, "explore", "--max-n", "1", "--trials", "2")[0] == 0


def test_shift_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random(-s) seeds as random.Random(s), so the reseeds -1, 0, 1
    # of --seed -1 would draw seed 1's matrix twice
    src = write(tmp_path, "b.cx", TWO_EDGES)
    for seed in ("-1", "-3"):
        code, out, err = run(capsys, "shift", src, "--seed", seed)
        assert code == 1 and out == "", seed
        assert err.startswith(f"error: seed must be a nonnegative int, got {seed}"), err


def test_verify_and_explore_refuse_a_negative_seed_up_front(capsys, monkeypatch):
    # one rule for every command that takes --seed: refused before any
    # suite runs, not only by the suites that happen to shift at it
    def never(**kwargs):
        raise AssertionError("nothing is drawn for a refused seed")

    monkeypatch.setattr(cli, "conjecture_scan", never)
    monkeypatch.setattr(cli, "SUITES", {name: never for name in cli.SUITES})
    for argv in (
        ("verify", "betti"),
        ("verify", "all", "--json"),
        ("explore", "--trials", "2"),
        ("explore", "--trials", "2", "--json"),
    ):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, ""), argv
        assert err == "error: seed must be a nonnegative int, got -1\n", argv


def test_max_n_past_the_label_cap_is_refused_even_with_force(capsys, monkeypatch):
    # verify keeps its complexes within --max-n labels, and explore suspends
    # each draw, adding 2; past those caps a run would fail deep inside, so
    # it is refused before anything is drawn
    def never(**kwargs):
        raise AssertionError("drew past the label cap")

    monkeypatch.setattr(cli, "conjecture_scan", never)
    monkeypatch.setitem(cli.SUITES, "idempotence", never)
    for argv in (
        ("verify", "idempotence", "--trials", "3", "--max-n", "80", "--force"),
        ("explore", "--trials", "1", "--max-n", "64", "--force", "--seed", "8"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: --max-n"), (argv, err)
    monkeypatch.undo()
    # the caps themselves are accepted
    argv = ("verify", "idempotence", "--trials", "1", "--max-n", "64", "--force")
    assert run(capsys, *argv)[0] == 0
    argv = ("explore", "--trials", "1", "--max-n", "62", "--force", "--seed", "8")
    assert run(capsys, *argv)[0] == 0


def test_explore_runs_clean(capsys):
    code, out, _ = run(capsys, "explore", "--trials", "5", "--max-n", "6")
    assert code == 0
    assert "violations: 0" in out


def test_explore_records_failed_draws_and_goes_on(capsys):
    # at p = 7 draws 5 and 9 of seed 0 fail to validate: each is named under
    # failures, left out of the tallies, and the scan runs its other draws
    argv = ("explore", "--trials", "10", "--seed", "0", "--prime", "7")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    d = json.loads(out)
    assert [f.split(":")[0] for f in d["failures"]] == ["draw 5 at seed 0", "draw 9 at seed 0"]
    assert sum(d["tallies"].values()) + len(d["failures"]) == 10
    assert d["violations"] == 0
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "failures: 2\n  draw 5 at seed 0: " in out


def test_bad_usage_and_help_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 1
    assert run(capsys, "shift")[0] == 1
    assert run(capsys, "op", "squash", "x")[0] == 1


def test_out_flag_writes_file(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    dest = tmp_path / "out.cx"
    code, out, _ = run(capsys, "shift", src, "--out", str(dest))
    assert code == 0 and out == ""
    assert parse_complex_text(dest.read_text()) == SimplicialComplex.from_facets(
        4, [[1, 2], [1, 3], [4]]
    )


def _boom(*args, **kwargs):
    raise ValueError("boom")


# one run of each command, its exit code, and a stage that runs after the
# command has started: for verify the last suite, so the earlier suites'
# lines (failures included, at p = 7) are ready to be written before it raises
COMMANDS = [
    (
        ("shift", "k.cx"),
        0,
        lambda mp: mp.setattr(cli, "betti_from_shifted", _boom),
    ),
    (
        ("op", "compare", "k.cx", "e.cx"),
        0,
        lambda mp: mp.setitem(cli._OPS, "compare", (_boom, 2, None)),
    ),
    (
        ("verify", "all", "--trials", "10", "--seed", "2", "--prime", "7"),
        2,
        lambda mp: mp.setitem(cli.SUITES, sorted(SUITES)[-1], _boom),
    ),
    (
        ("explore", "--trials", "10", "--seed", "0", "--prime", "7"),
        2,
        lambda mp: mp.setattr(cli, "conjecture_scan", _boom),
    ),
]


@pytest.mark.parametrize("argv, want, fail_midway", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_one_exit_code_in_both_modes_and_no_stdout_after_an_error(
    tmp_path, capsys, monkeypatch, argv, want, fail_midway
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.cx").write_text("1 2 3\n3 4\n4 5\n2 5\n")
    (tmp_path / "e.cx").write_text(TWO_EDGES)
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *mode)
        assert (code, err) == (want, ""), mode
        assert out
    fail_midway(monkeypatch)
    for mode in ((), ("--json",)):
        assert run(capsys, *argv, *mode) == (1, "", "error: boom\n"), mode


P61 = 2305843009213693951


def _pretty(report):
    return json.dumps(report, indent=2) + "\n"


def test_golden_stdout_bytes(tmp_path, capsys, monkeypatch):
    # exact stdout, key order included, for fixed inputs and seeds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.cx").write_text("1 2 3\n3 4\n4 5\n2 5\n")
    (tmp_path / "d.cx").write_text("n=4\n1 2\n1 3\n4\n")
    shifted_facets = [[1, 4], [1, 5], [2, 4], [1, 2, 3]]
    golden = {
        ("shift", "k.cx", "--seed", "5"): (
            "# shift of k.cx (matrix=generic, seed=5)\n"
            "# f_vector=(1, 5, 6, 1)\n"
            "# shifted=True retries=0\n"
            "# betti=(0, 0, 1, 0)\n"
            "n=5\n1 4\n1 5\n2 4\n1 2 3\n"
        ),
        ("shift", "k.cx", "--seed", "5", "--json"): _pretty({
            "schema": 1, "command": "shift", "seed": 5, "prime": P61, "n": 5,
            "facets": shifted_facets, "f_vector": [1, 5, 6, 1], "betti": [0, 0, 1, 0],
            "validated": {"is_shifted": True, "f_vector_preserved": True},
            "retries": 0,
        }),
        ("op", "betti", "k.cx", "--json"): _pretty({
            "schema": 1, "command": "op", "kind": "betti", "prime": P61, "n": 5,
            "f_vector": [1, 5, 6, 1], "betti": [0, 0, 1, 0],
        }),
        ("op", "compare", "k.cx", "d.cx", "--json"): _pretty({
            "schema": 1, "command": "op", "kind": "compare", "relation": "less",
        }),
        ("op", "cone", "d.cx", "--json"): _pretty({
            "schema": 1, "command": "op", "kind": "cone", "n": 5,
            "facets": [[1, 5], [1, 2, 3], [1, 2, 4]], "f_vector": [1, 5, 6, 2],
        }),
        ("verify", "counterexample", "--seed", "7", "--json"): _pretty({
            "schema": 1, "command": "verify", "seed": 7, "prime": P61,
            "trials": 10, "max_n": 8, "ok": True,
            "suites": [{
                "suite": "counterexample", "ok": True, "passed": 4, "total": 4,
                "checks": [
                    {"label": "shift-of-suspension-extra", "ok": True, "detail": "126"},
                    {"label": "suspension-of-shift-extra", "ok": True, "detail": "134"},
                    {"label": "f-vectors-agree", "ok": True, "detail": "(1, 6, 10, 4)"},
                    {"label": "strictly-lex-smaller", "ok": True, "detail": "less"},
                ],
            }],
        }),
        ("explore", "--trials", "3", "--seed", "11", "--json"): _pretty({
            "schema": 1, "command": "explore", "seed": 11, "prime": P61,
            "trials": 3, "max_n": 8,
            "tallies": {"equal": 2, "less": 1, "greater": 0, "incomparable": 0},
            "violations": 0, "witnesses": [],
        }),
    }
    for argv, want in golden.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == want, argv


def test_prime_two_is_rejected(tmp_path, capsys):
    src = write(tmp_path, "b.cx", TWO_EDGES)
    code, out, err = run(capsys, "shift", src, "--prime", "2")
    assert code == 1 and out == ""
    assert "odd prime" in err
