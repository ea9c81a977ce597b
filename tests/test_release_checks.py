"""Release-level checks: the campaign CLI surface, report sections,
packaging consistency, and cross-module documentation invariants."""

import importlib.util
import pathlib

import pytest

import repro
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestCampaignCli:
    """``repro campaign`` has one action, ``cells``; the record campaign's
    ``run``/``check`` and ``--baseline`` are gone (the paper tables are
    checked by ``tests/test_experiments_fresh.py``)."""

    @pytest.mark.parametrize("action", ["run", "check"])
    def test_removed_actions_are_rejected(self, action, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", action, "--out", str(tmp_path / "c.json")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "c.json").exists()

    def test_baseline_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "cells", "--baseline", str(tmp_path / "b.json")])
        assert excinfo.value.code == 2


class TestVerifyExports:
    def test_analysis_verify_shim_is_gone(self):
        assert importlib.util.find_spec("repro.analysis.verify") is None

    def test_reexports_are_the_checkers(self):
        from repro.verify import checkers

        for name in ("verify_edge_coloring", "verify_vertex_coloring"):
            assert getattr(repro, name) is getattr(checkers, name)


class TestReportSections:
    def test_scaling_section_matches_paper_exponents(self):
        from repro.analysis.experiments import _scaling_section

        section = _scaling_section()
        # the fitted exponents are printed next to the paper's values; for
        # the closed-form models they must agree to three decimals
        assert "| 1 | 0.250 | 0.250 | 0.333 | 0.333 |" in section
        assert "| 3 | 0.125 | 0.125 | 0.200 | 0.200 |" in section


class TestPackagingConsistency:
    def test_version_matches_setup(self):
        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert f'version="{repro.__version__}"' in setup_text

    def test_design_doc_references_real_modules(self):
        import importlib
        import re

        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for match in set(re.findall(r"`repro/([a-z_]+)/", design)):
            importlib.import_module(f"repro.{match}")

    def test_readme_mentions_all_examples(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for script in (REPO_ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"README missing {script.name}"

    def test_experiments_md_is_fresh_format(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "# EXPERIMENTS — paper vs. measured" in text
        assert "Scaling shapes" in text
        assert "Ablations" in text
