"""Command-line interface: verbs, output formats and exit codes."""
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import acmchar
from acmchar import IntFun, check_necessary, enumerate_acm_curves
from acmchar.binomial import MAX_EXPANSION_TERMS
from acmchar.characters import MAX_BILIAISON_SPAN, MAX_RESOLUTION_CODIM
from acmchar.cli import run

from helpers import macaulay_functions, run_capped


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out.strip(), out.err.strip()
    return invoke


@pytest.fixture
def necessary_calls(monkeypatch):
    """Count check_necessary calls through every module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return check_necessary(*args)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "acmchar"
                and getattr(module, "check_necessary", None) is check_necessary):
            monkeypatch.setattr(module, "check_necessary", counted)
    return calls


class TestExpansionVerbs:
    def test_expand(self, capture):
        code, out, _ = capture("expand", "25", "3")
        assert code == 0
        assert out == "25 = C(6,3) + C(3,2) + C(2,1)"

    def test_expand_json(self, capture):
        code, out, _ = capture("expand", "25", "3", "--json")
        assert code == 0
        assert json.loads(out)["terms"] == [[6, 3], [3, 2], [2, 1]]

    def test_expand_huge_alpha_finishes(self, capture):
        start = time.perf_counter()
        code, out, _ = capture("expand", "100000000000000000000", "2", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["value"] == 10**20

    def test_upper(self, capture):
        code, out, _ = capture("upper", "25", "3")
        assert code == 0
        assert out == "42"

    def test_upper_all_ones_finishes(self, capture):
        # every term of the expansion is C(k,k), so the bound is alpha
        start = time.perf_counter()
        code, out, _ = capture("upper", "10000000", "10000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "10000000")

    def test_upper_domain_error(self, capture):
        code, _, err = capture("upper", "-1", "2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("alpha", ["0", "5"])
    def test_upper_index_error(self, capture, alpha):
        code, _, err = capture("upper", alpha, "0")
        assert code == 1
        assert "i must be >= 1" in err


class TestGrowthVerbs:
    def test_growth_true_false(self, capture):
        assert capture("growth", "(1,3,4)") == (0, "true", "")
        assert capture("growth", "(1,2,4)") == (0, "false", "")

    def test_lex_oracle(self, capture):
        assert capture("lex-oracle", "(1,3,6)")[1] == "true"

    def test_decompose(self, capture):
        code, out, _ = capture("decompose", "(1,3,6)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "h_0 = (1,2,3)"
        assert lines[-1] == "r = 2  s0 = 3"

    def test_decompose_json_roundtrips(self, capture):
        code, out, _ = capture("decompose", "(1,3,4)", "--json")
        doc = json.loads(out)
        parts = [IntFun.from_json(p) for p in doc["parts"]]
        assert parts == [IntFun(0, (1, 2, 3)), IntFun(0, (1, 1))]


class TestConversionVerbs:
    def test_gamma_to_h_and_back(self, capture):
        _, h_out, _ = capture("gamma-to-h", "(-1,-2,-1,4)")
        assert h_out == "(1,3,4)"
        _, g_out, _ = capture("h-to-gamma", h_out)
        assert g_out == "(-1,-2,-1,4)"

    def test_json_function_literal(self, capture):
        code, out, _ = capture("h-to-gamma",
                               '{"offset": 0, "values": [1, 3, 4]}')
        assert code == 0
        assert out == "(-1,-2,-1,4)"

    def test_far_offset_prints_compactly(self, capsys):
        code = run(["h-to-gamma", '{"offset":1000000,"values":[1]}'])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.encode()) < 100
        assert IntFun.parse(out) == IntFun(1000000, (-1, 1))

    def test_offset_form_is_accepted(self, capture):
        code, out, _ = capture("growth", "(0,0,1)@-2")
        assert code == 0 and out == "true"

    def test_malformed_literal_is_usage_error(self, capture):
        code, _, err = capture("gamma-to-h", "(1,x)")
        assert code == 2
        assert "malformed" in err


class TestAnalysisVerbs:
    def test_analyze_codim3(self, capture):
        code, out, _ = capture("analyze-codim3", "(-1,-2,-1,4)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["s0"] == 2 and doc["s1"] == 2 and doc["r"] == 1
        assert doc["s1_from_decomposition"] == 2
        assert doc["bounds_ok"] and doc["integral_screen"]

    def test_analyze_codim3_makes_no_separate_check(
            self, capture, necessary_calls):
        """s1 and the integral screen are read off the decomposition, at
        r = 1 and at r = 0 alike."""
        for literal, head in [("(-1,-2,-1,4)", "s0 = 2  s1 = 2  r = 1"),
                              ("(-1,-1,2)", "s0 = 1  s1 = 2  r = 0")]:
            code, out, _ = capture("analyze-codim3", literal)
            assert code == 0 and out.splitlines()[0] == head
        assert necessary_calls == []

    def test_analyze_codim3_agrees_with_the_library_scans(self, capture):
        """s0, s1 and the integral screen read off the decomposition equal
        what check_necessary, s1_general and integral_screen find, on every
        codim-3 character of degree <= 16 (424, the screen fails on 26)."""
        seen = failed = 0
        for a in range(4):
            for h in macaulay_functions(a, 16):
                gamma = acmchar.gamma_from_h(h)
                code, out, _ = capture("analyze-codim3", str(gamma), "--json")
                doc = json.loads(out)
                s1 = acmchar.s1_general(gamma, 3)
                assert code == 0
                assert (doc["s0"], doc["s1"]) == (check_necessary(gamma, 3).s0, s1)
                assert doc.get("s1_from_decomposition", s1) == s1
                assert ("s1_from_decomposition" in doc) == (doc["r"] >= 1)
                assert doc["integral_screen"] == acmchar.integral_screen(gamma)
                seen, failed = seen + 1, failed + (not doc["integral_screen"])
        assert (seen, failed) == (424, 26)

    def test_decompose_codim3_makes_no_separate_check(self, necessary_calls):
        assert acmchar.decompose_codim3(IntFun(0, (-1, -2, -1, 4))).r == 1
        assert necessary_calls == []

    def test_integral_screen_checks_the_character_once(self, necessary_calls):
        assert acmchar.integral_screen(IntFun(0, (-1, -2, -1, 4)))
        assert len(necessary_calls) == 1

    def test_integral_quadric_check_checks_the_character_once(
            self, necessary_calls):
        """quadric_check's guard supplies s0 and s1 to the screen."""
        assert acmchar.integral_quadric_check(IntFun(0, (-1, -2, -1, 4)))
        assert len(necessary_calls) == 1

    def test_quadric_check_checks_the_character_once(
            self, capture, necessary_calls):
        code, out, _ = capture("quadric-check", "(-1,-2,-1,4)")
        assert code == 0 and out == "valid t=1 s=3"
        assert len(necessary_calls) == 1

    def test_analyze_rejects_bad_character(self, capture):
        code, _, err = capture("analyze-codim3", "(-1,1,-1,1)")
        assert code == 1 and "not a codim-3" in err

    def test_analyze_names_the_type_of_the_h_vector(self, capture):
        code, _, err = capture("analyze-codim3", "(-1,-3,4)")
        assert code == 1
        assert err == "error: not a codim-3 ACM character: h-vector of type 4"

    def test_quadric_check(self, capture):
        code, out, _ = capture("quadric-check", "(-1,-2,-1,4)")
        assert code == 0
        assert out == "valid t=1 s=3"

    def test_invariants_curve(self, capture):
        code, out, _ = capture("invariants", "--curve", "(-1,-2,-1,4)")
        assert code == 0
        assert out == "d=8 g=4"

    @pytest.mark.parametrize("kind", ["--curve", "--surface"])
    def test_invariants_empty_literal_is_zero(self, capture, kind):
        assert (capture("invariants", kind, "")
                == capture("invariants", kind, "(0)"))

    def test_invariants_surface(self, capture):
        code, out, _ = capture("invariants", "--surface", "(-1,-1,-1,3)")
        assert code == 0
        assert out == "d=6 delta=-2 pa=0"

    def test_biliaison(self, capture):
        code, out, _ = capture("biliaison", "(-1,-2,-1,4)", "(-1,0,1)", "1")
        assert code == 0
        parsed = IntFun.parse(out)
        assert parsed.degree() == 8 + 2

    def test_resolution_roundtrip(self, capture):
        _, out, _ = capture("resolution", "(-1,-2,-1,4)", "--codim", "3")
        assert out == "(-1,0,2,4,-9,4)"
        _, back, _ = capture("resolution", out, "--codim", "3", "--inverse")
        assert back == "(-1,-2,-1,4)"


class TestEnumerateVerb:
    def test_table_output(self, capture):
        code, out, _ = capture("enumerate", "--max-degree", "5")
        assert code == 0
        assert out.splitlines()[0].startswith("4 0")

    def test_json_output(self, capture):
        code, out, _ = capture("enumerate", "--max-degree", "5", "--json")
        doc = json.loads(out)
        assert {(e["d"], e["g"]) for e in doc["pairs"]} == {(4, 0), (5, 1)}

    def test_verbose_dumps_witnesses(self, capture):
        code, out, _ = capture("enumerate", "--max-degree", "4", "--verbose")
        assert code == 0
        assert any(line.startswith("  ") for line in out.splitlines())

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("max_degree", range(4, 25))
    def test_json_is_the_table_dumped(self, capsys, max_degree, degenerate):
        flag = ["--degenerate"] if degenerate else []
        code = run(["enumerate", "--max-degree", str(max_degree), "--json",
                    *flag])
        table = enumerate_acm_curves(max_degree, nondegenerate=not degenerate)
        assert code == 0
        assert capsys.readouterr().out == json.dumps(
            table.to_json(), sort_keys=True) + "\n"

    @staticmethod
    def rendered(table, verbose):
        """The plain or --verbose text of a whole table, from its split()."""
        listed, beyond = table.split()
        lines = []
        for heading, entries in ((None, listed),
                                 ("beyond the classical list:", beyond)):
            if heading and entries:
                lines.append(heading)
            for e in entries:
                lines.append(f"{e.d} {e.g} {len(e.witnesses)}")
                if verbose:
                    lines += ["  " + " ".join(map(str, w.parts))
                              for w in e.witnesses]
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("nondegenerate", [True, False])
    def test_streamed_output_is_the_table_rendered(self, capsys, nondegenerate):
        """Each form of the streamed output equals the text built from the
        whole table, including D = 10 and 11, where the held-back
        beyond_paper rows end."""
        flag = [] if nondegenerate else ["--degenerate"]
        for max_degree in range(4 if nondegenerate else 1, 21):
            table = enumerate_acm_curves(max_degree, nondegenerate)
            argv = ["enumerate", "--max-degree", str(max_degree), *flag]
            for form, want in (
                    ("--json", json.dumps(table.to_json(), sort_keys=True) + "\n"),
                    (None, self.rendered(table, verbose=False)),
                    ("--verbose", self.rendered(table, verbose=True))):
                assert run(argv + [form] * bool(form)) == 0
                assert capsys.readouterr().out == want, (max_degree, form)

    @pytest.mark.parametrize("form", [[], ["--json"], ["--verbose"]])
    def test_bound_is_refused_before_any_output(self, capsys, form):
        assert run(["enumerate", "--max-degree", "3", *form]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: degree bound below the minimal curve degree\n"

    @staticmethod
    def buffered_env():
        """The environment of a CLI child whose stdout is block-buffered,
        as it is for a user, whatever this process was started with."""
        env = {**os.environ, "PYTHONPATH": str(Path(acmchar.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        return env

    @pytest.mark.parametrize("form", ["--json", "--verbose"])
    def test_closed_pipe_ends_quietly(self, form):
        """A reader that stops early (as ``| head -1`` does) ends the
        listing with exit 1 and nothing on stderr."""
        with subprocess.Popen(
                [sys.executable, "-m", "acmchar.cli", "enumerate",
                 "--max-degree", "32", form], env=self.buffered_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(64)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert len(head) == 64
        assert (code, err) == (1, b"")

    def test_pipe_closed_before_a_short_answer(self):
        """A short answer sits in the stdout buffer until the flush in
        ``main``; a pipe already closed by then ends the call quietly too,
        with no second error from the flush at exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "acmchar.cli", "upper", "25", "3"],
                env=self.buffered_env(), stdout=write_end,
                stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_json_digest_degree_32(self, capsys):
        code = run(["enumerate", "--max-degree", "32", "--json"])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert code == 0
        assert digest == ("23e1f71e7ad88c2a7da035e025b3baec"
                          "28e19adb1109cd3ee65dd7c1e4eeb1b1")


class TestUsageErrors:
    def test_unknown_verb(self, capture):
        code, _, _ = capture("frobnicate")
        assert code == 2

    def test_missing_argument(self, capture):
        code, _, _ = capture("expand", "25")
        assert code == 2

    def test_no_verb(self, capture):
        code, _, _ = capture()
        assert code == 2

    @pytest.mark.parametrize("verb, literal", [
        ("growth", '{"offset":0,"values":[1,2.9,1]}'),
        ("gamma-to-h", '{"offset":0,"values":[-1.7,true,"0",0.7]}'),
    ])
    def test_non_integer_values_are_usage_errors(self, capture, verb, literal):
        code, out, err = capture(verb, literal)
        assert (code, out) == (2, "")
        assert err.startswith("error: not an integer")


    @pytest.mark.parametrize("literal", [
        '{"a":' * 100000 + "1" + "}" * 100000,
        '{"offset":0,"values":' + "[" * 100000 + "]" * 100000 + "}",
    ], ids=["object", "values"])
    def test_deeply_nested_json_is_usage_error(self, capture, literal):
        code, out, err = capture("growth", literal)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("literal", [
        "[" * 200001,
        '{"offset":0,"values":["' + "x" * 200000 + '"]}',
    ], ids=["positional", "json-string"])
    def test_long_literal_is_quoted_briefly(self, capsys, literal):
        code = run(["growth", literal])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err.startswith("error: ") and len(out.err.encode()) < 200

    def test_long_non_macaulay_function_is_quoted_briefly(self, capsys):
        literal = "(1,3,7" + ",1" * 100000 + ")"
        code = run(["decompose", literal])
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err.startswith("error: not a Macaulay function: ")
        assert len(out.err.encode()) < 200


class TestBoundedVerbs:
    """Verbs whose dense output would grow with a height or a codim refuse
    past a fixed bound, at once, instead of running for minutes."""

    @pytest.mark.parametrize("argv, bound", [
        (["resolution", "(-1,1)", "--codim", "20000"], MAX_RESOLUTION_CODIM),
        (["resolution", "(-1,1)", "--codim", "20000", "--inverse"],
         MAX_RESOLUTION_CODIM),
        (["biliaison", "(-1,1)", "(-1,1)", "30000000"], MAX_BILIAISON_SPAN),
        (["biliaison", "(1,-1)@1000000000", "(-1,1)", "1"],
         MAX_BILIAISON_SPAN),
        (["expand", "1000000", "1000000"], MAX_EXPANSION_TERMS),
    ])
    def test_refuses_past_the_bound(self, capture, argv, bound):
        start = time.perf_counter()
        code, out, err = capture(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(bound) in err

    def test_resolution_answers_at_the_bound(self, capture):
        code, out, _ = capture("resolution", "(-1,1)", "--codim",
                               str(MAX_RESOLUTION_CODIM))
        assert code == 0
        assert IntFun.parse(out).sup() == MAX_RESOLUTION_CODIM
        code, back, _ = capture("resolution", out, "--codim",
                                str(MAX_RESOLUTION_CODIM), "--inverse")
        assert (code, back) == (0, "(-1,1)")
        for inverse in ([], ["--inverse"]):
            code, _, err = capture("resolution", "(-1,1)", "--codim",
                                   str(MAX_RESOLUTION_CODIM + 1), *inverse)
            assert code == 1 and str(MAX_RESOLUTION_CODIM) in err

    def test_biliaison_answers_at_the_bound(self, capture):
        # the summands span [0, h + 1], so this h spans exactly the bound
        height = MAX_BILIAISON_SPAN - 2
        code, out, _ = capture("biliaison", "(-1,1)", "(-1,1)", str(height))
        assert code == 0
        assert IntFun.parse(out) == IntFun(0, (-1,)) + IntFun(height + 1, (1,))
        code, _, err = capture("biliaison", "(-1,1)", "(-1,1)",
                               str(height + 1))
        assert code == 1 and str(MAX_BILIAISON_SPAN) in err

    def test_biliaison_with_a_zero_support_at_a_far_offset(self):
        """gamma_y = 0 leaves gamma_x in place: the sums add zero operands
        and fill no gap down to degree 0 (run under an address-space cap)."""
        proc = run_capped("-m", "acmchar.cli", "biliaison",
                          "(-1,1)@1000000000", "(0)", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "(-1,1)@1000000000\n", "")

    def test_non_character_is_refused_first(self, capture):
        code, _, err = capture("biliaison", "(-1,1)", "(1)", "30000000")
        assert code == 1 and "constant tail" in err


# Function literals for TestGoldenOutput: h-vectors, characters, far and
# negative offsets, an input beyond the lex oracle's scale, invalid ones.
GOLDEN_LITERALS = [
    "(1)", "(1,3,4)", "(1,3,6,10,11)", "(1,2,4)", "(1,5,1)",
    "(1,2,3,4,5,6,7,8,9,10)", "(0,0,1)@-2", "(1,2,1)@40", "(-1,-2,-1,4)",
    "(-1,-1,-1,3)", "(1,-1)@7", "(-1,1)@-1", "(0)", "(1,x)",
    '{"offset":0,"values":[1,2.9,1]}', '{"offset":2,"values":[1,-3,2]}',
]
GOLDEN_ARGVS = (
    [[verb, lit] for verb in ("growth", "lex-oracle", "gamma-to-h",
                              "h-to-gamma")
     for lit in GOLDEN_LITERALS]
    + [["resolution", lit, "--codim", "3", *inverse]
       for lit in GOLDEN_LITERALS for inverse in ([], ["--inverse"])]
    + [["resolution", "(-1,-2,-1,4)", "--codim", codim, *inverse]
       for codim in ("1", "2", "5") for inverse in ([], ["--inverse"])]
    + [["biliaison", x, y, height]
       for x in ("(-1,-2,-1,4)", "(1,-1)@7", "(1,x)")
       for y in ("(-1,0,1)", "(-1,1)@-1", "(1,3,4)")
       for height in ("-2", "0", "5")]
)
# recorded while each of these verbs still had its own handler
GOLDEN_DIGEST = (
    "c0fbc9ffb87f023ac439e82675d6d5d81888771705bd877a8dda088228dd517f")
# recorded before the CLI built its parser once per process
ANALYZE_CODIM3_DIGEST = (
    "d96d9698c1f1b36bfa7a3dee8f93635a4f1b3009a391e84250634d40db311e20")


class TestGoldenOutput:
    """The function verbs' output, errors included, is fixed byte for
    byte in human and JSON form."""

    @staticmethod
    def digest(capsys, argvs):
        """sha256 over (argv, exit code, stdout, stderr) of each argv run
        plain and with --json."""
        digest = hashlib.sha256()
        for argv in argvs:
            for form in ([], ["--json"]):
                code = run(argv + form)
                out = capsys.readouterr()
                digest.update(json.dumps(
                    [argv + form, code, out.out, out.err]).encode())
        return digest.hexdigest()

    def test_digest(self, capsys):
        assert self.digest(capsys, GOLDEN_ARGVS) == GOLDEN_DIGEST

    def test_analyze_codim3_digest(self, capsys):
        """analyze-codim3 on the 3,083 characters of degree <= 24 of types
        0-3, each also shifted up one degree and with a unit moved from
        degree 2 to degree 1: 9,249 literals, of which 3,722 are answered
        and the rest refused."""
        table = enumerate_acm_curves(24, nondegenerate=False)
        chars = [w.recompose() for e in table.entries for w in e.witnesses]
        argvs = [["analyze-codim3", json.dumps(f.to_json(), sort_keys=True)]
                 for g in chars
                 for f in (g, IntFun(g.offset + 1, g.values),
                           g + IntFun(1, (1, -1)))]
        assert len(argvs) == 9249
        assert self.digest(capsys, argvs) == ANALYZE_CODIM3_DIGEST

    @pytest.mark.parametrize("argv, want", [
        (["--max-degree", "24"],
         "079c0330e567dbb9b37d20c09fe461bdb1a9d9a9cf0355db5c24cae0333c6e35"),
        (["--max-degree", "32"],
         "f959e8bfaaa71aef3c2707aff08f00fd27307356d40eb91f962165f2229aa388"),
        (["--max-degree", "24", "--degenerate"],
         "247bb4ff324435d4615ab2b4265d917747e56e600b5a46d393377ad1f76d18c6"),
        (["--max-degree", "24", "--verbose"],
         "3b912344990958adb8cf933362457d9df29764a44118060c03ded2558ac6cf56"),
        (["--max-degree", "24", "--verbose", "--degenerate"],
         "a616ad535ba9cc0b3fb79f542b00d551bd5074d57b7c9db0c23f74d3a2bdd5d2"),
    ], ids=["d24", "d32", "d24-degenerate", "d24-verbose",
            "d24-verbose-degenerate"])
    def test_plain_enumerate_digest(self, capsys, argv, want):
        """The human (d, g) table, recorded before its component table was
        built from layer lengths; with --verbose, every witness too,
        recorded while the stream still carried IntFun parts."""
        code = run(["enumerate", *argv])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert code == 0
        assert digest == want
