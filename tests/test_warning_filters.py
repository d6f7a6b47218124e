"""The suite's warning filters, run on a small suite of their own."""

import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_property_test_is_one_failure(pytester):
    """Reporting a failing ``@given`` example imports modules that warn on
    import; under the suite's filters that is one failed test, not an
    ``INTERNALERROR`` that ends the run."""
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]
    filters = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
