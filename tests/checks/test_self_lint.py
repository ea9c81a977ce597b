"""The acceptance test of the tentpole: this repository's own tree is
clean under its own static-analysis pass, and every exception it carries
is an explicit, rationale-bearing waiver."""

import time

from repro.checks import detect_root, run_checks


def test_repo_tree_passes_its_own_checks():
    started = time.perf_counter()
    report = run_checks()
    elapsed = time.perf_counter() - started
    unwaived = [v.describe() for v in report.violations if not v.waived]
    assert unwaived == [], "\n".join(unwaived)
    # CI runs the full scan before every test pass: it has to stay cheap
    assert elapsed <= 10.0, f"full scan took {elapsed:.2f} s (bound 10 s)"


def test_self_scan_covers_the_real_tree():
    report = run_checks()
    # The scan must actually be the full package, not a stub tree.
    assert (detect_root() / "src" / "repro" / "registry.py").is_file()
    assert report.files >= 80
    assert len(report.rules) >= 13


def test_every_waiver_in_the_tree_carries_a_rationale():
    report = run_checks()
    for violation in report.violations:
        if violation.waived:
            assert violation.rationale and violation.rationale.strip()
