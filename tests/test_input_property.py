"""Property test: every CLI input gives a verdict or one named error line.

Surface parameters, dilation factors and domain bounds are drawn far out,
at +-10^k for k in [-300, 300].  A run exits 0 or 2 with a JSON report, or
exits 1 with exactly one ``error: `` line; a RuntimeWarning (an error in
the test run) or any other exception fails the test.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from confgauss.cli import main  # noqa: E402
from confgauss.zoo import SURFACES  # noqa: E402

GRID = "17"
FLOAT_PARAMS = {name: [key for key, default in kind.defaults.items()
                       if isinstance(default, float)]
                for name, kind in SURFACES.items()}

# +-10^k as the command line spells it; a negative value needs "--flag=",
# since argparse reads "-1e+25" as a flag
powers = st.builds(lambda sign, k: f"{sign}1e{k:+d}",
                   st.sampled_from(["", "-"]), st.integers(-300, 300))
bound_pairs = st.lists(powers, min_size=2, max_size=2).map(
    lambda pair: sorted(pair, key=float))


@st.composite
def analyze_argv(draw):
    name = draw(st.sampled_from(sorted(SURFACES)))
    flags = draw(st.lists(st.sampled_from(FLOAT_PARAMS[name]), unique=True)
                 if FLOAT_PARAMS[name] else st.just([]))
    argv = ["analyze", name, *(f"--{flag}={draw(powers)}" for flag in flags)]
    if draw(st.booleans()):
        argv.append("--domain=" + ",".join(draw(bound_pairs) + draw(bound_pairs)))
    return argv


transform_argv = st.builds(
    lambda name, lam: ["transform", name, "--word", f"dil:{lam!r}"],
    st.sampled_from(["cylinder", "clifford_torus"]), st.floats(-709.0, 709.0))


def _assert_verdict_or_named_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--grid", GRID])
    if code in (0, 2):
        json.loads(out.getvalue())
    else:
        assert code == 1, argv
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@settings(max_examples=120, deadline=None)
@given(analyze_argv())
def test_far_out_analyze_gives_verdict_or_named_error(argv):
    _assert_verdict_or_named_error(argv)


@settings(max_examples=40, deadline=None)
@given(transform_argv)
def test_far_out_dilation_gives_verdict_or_named_error(argv):
    _assert_verdict_or_named_error(argv)
