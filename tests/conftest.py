import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver guidance)."""
    from jschon_ray.runtime import session

    with session():
        yield


def pytest_terminal_summary(terminalreporter):
    """The certification record: the pass count next to the skip count
    of each reason, so a growing set of skips for one reason (say
    ``ref_oracle.REFERENCE_UNAVAILABLE``) shows. It only reports."""
    from collections import Counter

    stats = terminalreporter.stats
    reasons = Counter()
    for rep in stats.get("skipped", []):
        reason = rep.longrepr[2] if isinstance(rep.longrepr, tuple) \
            else str(rep.longrepr)
        reasons[reason.removeprefix("Skipped: ")] += 1
    terminalreporter.section("certification record")
    terminalreporter.write_line(
        f"{len(stats.get('passed', []))} passed, "
        f"{sum(reasons.values())} skipped")
    for reason, n in reasons.most_common():
        terminalreporter.write_line(f"{n:6d} skipped: {reason}")
