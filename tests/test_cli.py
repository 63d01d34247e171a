"""Command-line interface: verbs, output formats and exit codes."""
import json
import sys
import time

import pytest

import acmchar
from acmchar import IntFun, check_necessary
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
