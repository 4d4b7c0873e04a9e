"""Two CLI inputs that used to end somewhere other than one refusal line.

``tango-repro mesh --max-n N`` with N below 2 swept an empty range,
printed "(no rows)" and exited 0, for 1, 0 and -3 alike.  A Tango pairs
two edges, so the sweep now refuses such an N in one line with exit 2,
as ``federation run --edges`` does.

``tango-repro lint`` establishes every shipped deployment to check its
BGP network and the given fault plans.  A builder that raised let its
exception escape ``run_lint`` as a traceback.  It is now one stderr
line naming the deployment and the exception, with exit 2.
"""

import io

import pytest

from repro.cli import main
from repro.lint import plans, run_lint
from repro.scenarios import shipped


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_mesh_refuses_fewer_than_two_members_in_one_line(max_n, capsys):
    assert main(["mesh", "--max-n", max_n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line == (
        f"tango-repro: --max-n must be >= 2 (Tango pairs two edges), got {max_n}"
    )


@pytest.fixture
def fresh_shipped():
    """The shipped deployments are built once per process; rebuild them
    around a test that breaks a builder."""
    plans._shipped.cache_clear()
    yield
    plans._shipped.cache_clear()


def test_lint_reports_a_shipped_deployment_that_fails_to_build(
    fresh_shipped, monkeypatch
):
    def broken(*args, **kwargs):
        raise TypeError("unexpected keyword 'include_events'")

    monkeypatch.setattr(shipped, "EnterpriseDeployment", broken)
    out, err = io.StringIO(), io.StringIO()
    assert run_lint([], stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().splitlines() == [
        "tango-repro lint: shipped deployment 'enterprise' failed to build: "
        "TypeError: unexpected keyword 'include_events'"
    ]
