"""Schema-freeze rule: frozen surfaces change only with a version bump.

See :mod:`repro.checks.baseline` for what is frozen and why. The rule
compares the AST-extracted facts of the scanned tree against the
checked-in ``schema_baseline.json``:

* shape changed, version unchanged — the real bug this rule exists for:
  a column added to ``STABLE_COLUMNS`` (or a trace-event field) would
  silently break byte-comparison against every existing store/trace.
  Fix: bump the version constant (stores of the older version are then
  refused, not migrated), then refresh the baseline.
* version changed (with or without a shape change) — a deliberate bump;
  the build still fails until ``repro check --update-baseline`` commits
  the new fingerprint, so the bump is visible in the diff as two
  coordinated edits (constant + baseline), never one stray constant.
* baseline missing while frozen surfaces exist — fails closed.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.checks.base import CheckRule, ProjectChecker, register_checker
from repro.checks.baseline import (
    BASELINE_NAME,
    extract_schema_facts,
    load_baseline,
)


@register_checker
class SchemaFreeze(ProjectChecker):
    rule = CheckRule(
        name="schema-freeze",
        family="schema",
        summary="STABLE_COLUMNS / trace-event fields / schema version "
        "constants must match the checked-in baseline; changes require a "
        "version bump plus `repro check --update-baseline`",
    )

    def check(self, project) -> Iterator[Tuple[str, int, str]]:
        facts = extract_schema_facts(project)
        if not facts:
            return  # mini-trees without any frozen surface
        baseline = load_baseline(project.root)
        if baseline is None:
            for surface, entry in sorted(facts.items()):
                yield entry["path"], entry["version_line"], (
                    f"frozen surface {surface!r} exists but there is no "
                    f"checks/{BASELINE_NAME} — run "
                    "`repro check --update-baseline` and commit it"
                )
            return
        for surface, entry in sorted(facts.items()):
            frozen = baseline.get(surface)
            if not isinstance(frozen, dict):
                yield entry["path"], entry["version_line"], (
                    f"frozen surface {surface!r} is missing from "
                    f"checks/{BASELINE_NAME} — refresh the baseline with "
                    "`repro check --update-baseline`"
                )
                continue
            version_same = entry["version"] == frozen.get("version")
            shape_same = entry["fingerprint"] == frozen.get("fingerprint")
            if version_same and shape_same:
                continue
            if version_same and not shape_same:
                shape_line = min(
                    entry["shape_lines"].values(), default=entry["version_line"]
                )
                yield entry["path"], shape_line, (
                    f"{surface}: frozen shape changed without a version "
                    f"bump (fingerprint {entry['fingerprint'][:12]} != "
                    f"baseline {str(frozen.get('fingerprint'))[:12]}) — "
                    "existing stores/traces would silently stop "
                    "byte-comparing; bump the version (older stores are "
                    "refused), then `repro check --update-baseline`"
                )
            else:
                yield entry["path"], entry["version_line"], (
                    f"{surface}: version is {entry['version']} but the "
                    f"baseline froze {frozen.get('version')} — if the bump "
                    "is deliberate, refresh with "
                    "`repro check --update-baseline` and commit both edits "
                    "together"
                )
