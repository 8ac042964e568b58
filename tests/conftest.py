"""Shared pytest plumbing: criterion verdict lines in the terminal summary,
and the hypothesis profile of the property tests."""

from hypothesis import settings

# A fixed, bounded example set keeps the property tests reproducible and fast;
# ``--hypothesis-profile default`` restores hypothesis' randomized search, and
# ``--hypothesis-profile deep`` runs it for 3,000 examples per property.
settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None, database=None)
settings.register_profile("deep", max_examples=3000, deadline=None, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.write_line("")
        for line in lines:
            terminalreporter.write_line(line)
