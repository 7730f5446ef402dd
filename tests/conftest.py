"""Suite-wide fixtures: runtime sanitizers around every test, and one fast
run per figure shared by every test that reads a figure's results."""

import pytest

from repro.experiments.runner import FIGURES
from repro.sanitize import capture
from repro.testing import sanitized_suite_fixture

sanitizers = sanitized_suite_fixture()


class _FigureRuns(dict):
    """figure name -> ``(report, digest)``: the figure's fast run under the
    event-digest hook, made the first time a test asks for it."""

    def __missing__(self, name):
        with capture() as digest:
            report = FIGURES[name](True)
        self[name] = (report, digest)
        return report, digest


@pytest.fixture(scope="session")
def figure_runs():
    """Each figure runs untraced at most once per session; the golden
    digests and the shape tests read the same run."""
    return _FigureRuns()
