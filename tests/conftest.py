"""Shared pytest wiring: the acceptance-criteria summary block.

The acceptance tests record one line per criterion; the terminal
summary prints them after the run, outside output capture, so the
lines always reach the console (and any log tee) no matter which
capture mode is active.
"""

import re

ACCEPTANCE_LINES: dict[int, str] = {}

_CRITERION_ID = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def record_acceptance(number: int, line: str) -> None:
    ACCEPTANCE_LINES[number] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    attempted = set()
    for key, reports in terminalreporter.stats.items():
        if key == "deselected":
            continue
        for report in reports:
            match = _CRITERION_ID.search(getattr(report, "nodeid", "") or "")
            if match:
                attempted.add(int(match.group(1)))
    numbers = sorted(attempted | set(ACCEPTANCE_LINES))
    if not numbers:
        return
    terminalreporter.section("acceptance criteria")
    for number in numbers:
        line = ACCEPTANCE_LINES.get(
            number, f"ACCEPTANCE {number:02d}: FAIL (no result recorded)"
        )
        terminalreporter.write_line(line)
