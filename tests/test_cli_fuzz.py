"""Random command lines through ``cli.run`` in process: every call ends
with exit code 0, 1 or 2 within a time budget, and no exception escapes."""
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from acmchar.cli import run

BUDGET_S = 2.0

FUNCTION_VERBS = ["growth", "lex-oracle", "decompose", "gamma-to-h",
                  "h-to-gamma", "analyze-codim3", "quadric-check"]
VERBS = FUNCTION_VERBS + ["expand", "upper", "invariants", "biliaison",
                          "resolution", "enumerate"]
FLAGS = ["--json", "--curve", "--surface", "--codim", "--inverse",
         "--max-degree", "--degenerate", "--verbose", "--help"]

small_values = st.lists(st.integers(min_value=-5, max_value=5), max_size=8)
offsets = st.integers(min_value=-10**9, max_value=10**9)
positional = st.builds(
    lambda vals, off: "(" + ",".join(map(str, vals)) + ")"
    + ("" if off is None else f"@{off}"),
    small_values, st.none() | offsets)
non_integers = (st.floats() | st.booleans() | st.none()
                | st.text(max_size=2) | st.lists(st.integers(), max_size=2))
json_objects = st.builds(
    lambda off, vals: json.dumps({"offset": off, "values": vals}),
    offsets | non_integers,
    st.lists(st.integers(min_value=-5, max_value=5) | non_integers,
             max_size=8))
deep_json = st.builds(
    lambda depth, pair: pair[0] * depth + "1" + pair[1] * depth,
    st.sampled_from([10, 2000, 100000]),
    st.sampled_from([('{"a":', "}"), ('{"offset":0,"values":[', "]}")]))
literals = st.one_of(
    st.sampled_from(["", " ", "()", "(0)", "@", "(1,3,4)", "(-1,-2,-1,4)",
                     "{}", '{"values":[1]}', '{"offset":0}', "[1]", "null"]),
    positional, json_objects, deep_json, st.text(max_size=12))
# numbers written as text; expand lists one term per unit of the index, so
# its index stays small
alphas = st.integers(min_value=-3, max_value=10**6).map(str)
indices = st.integers(min_value=-3, max_value=2000).map(str)
no_digits = st.text(alphabet=st.characters(blacklist_categories=("Nd",)),
                    max_size=8)


@st.composite
def argvs(draw, verb):
    if verb in FUNCTION_VERBS:
        argv = [verb, draw(literals)]
    elif verb == "expand":
        argv = [verb, draw(alphas), draw(indices)]
    elif verb == "upper":
        argv = [verb, draw(alphas), draw(indices | st.just("10000000"))]
    elif verb == "invariants":
        argv = [verb, draw(st.sampled_from(["--curve", "--surface"])),
                draw(literals)]
    elif verb == "biliaison":
        argv = [verb, draw(literals), draw(literals),
                str(draw(st.integers(min_value=-10**9, max_value=10**9)))]
    elif verb == "resolution":
        argv = [verb, draw(literals), "--codim",
                str(draw(st.integers(min_value=-3, max_value=1100)))]
        argv += draw(st.sampled_from([[], ["--inverse"]]))
    elif verb == "enumerate":
        argv = [verb, "--max-degree",
                str(draw(st.integers(min_value=-2, max_value=12)))]
        argv += draw(st.lists(st.sampled_from(["--degenerate", "--verbose"]),
                              max_size=2, unique=True))
    else:
        argv = draw(st.lists(st.sampled_from(VERBS + FLAGS) | no_digits,
                             max_size=4))
    return argv + draw(st.sampled_from([[], ["--json"]]))


@pytest.mark.parametrize("verb", VERBS + ["free-form"])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_run_exits_cleanly_and_in_time(verb, data):
    argv = data.draw(argvs(verb), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2)
    if code != 0:
        assert "error" in err.getvalue()
