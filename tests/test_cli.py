"""Command-line interface: verbs, output formats and exit codes."""
import hashlib
import json
import sys
import time

import pytest

import acmchar
from acmchar import IntFun, check_necessary
from acmchar.characters import MAX_BILIAISON_SPAN, MAX_RESOLUTION_CODIM
from acmchar.cli import run


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

    def test_analyze_codim3_checks_the_character_three_times(
            self, capture, necessary_calls):
        code, _, _ = capture("analyze-codim3", "(-1,-2,-1,4)")
        assert code == 0
        assert 1 <= len(necessary_calls) <= 3

    def test_integral_screen_checks_the_character_once(self, necessary_calls):
        assert acmchar.integral_screen(IntFun(0, (-1, -2, -1, 4)))
        assert len(necessary_calls) == 1

    def test_analyze_rejects_bad_character(self, capture):
        code, _, err = capture("analyze-codim3", "(-1,1,-1,1)")
        assert code == 1 and "not a codim-3" in err

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


class TestGoldenOutput:
    """The function verbs' output, errors included, is fixed byte for
    byte in human and JSON form."""

    def test_digest(self, capsys):
        digest = hashlib.sha256()
        for argv in GOLDEN_ARGVS:
            for form in ([], ["--json"]):
                code = run(argv + form)
                out = capsys.readouterr()
                digest.update(json.dumps(
                    [argv + form, code, out.out, out.err]).encode())
        assert digest.hexdigest() == GOLDEN_DIGEST
