"""EXPERIMENTS.md's generated block: the committed paper tables must equal
a fresh regeneration byte for byte, and ``repro experiments PATH`` may
rewrite only the text between the markers."""

import pathlib

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import BEGIN_MARKER, END_MARKER
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FAKE_BLOCK = "## Table 1 — fake\n\n| a |\n|---|\n| 1 |\n"

PROSE = (
    "# Title\r\n\r\nHand-written  prose, odd spacing\tand CRLF endings.\r\n\r\n"
    f"{BEGIN_MARKER}\n\nstale rows\n\n{END_MARKER}\n\n"
    "## After\n\ntrailing prose without a final newline"
)


@pytest.fixture
def fake_generator(monkeypatch):
    monkeypatch.setattr(experiments, "generate_report", lambda: FAKE_BLOCK)


def test_committed_block_is_fresh():
    with open(REPO_ROOT / "EXPERIMENTS.md", encoding="utf-8", newline="") as handle:
        text = handle.read()
    assert experiments.splice(text, experiments.generate_report()) == text, (
        "EXPERIMENTS.md is stale: run `python -m repro experiments EXPERIMENTS.md`"
    )


def test_committed_file_has_exactly_one_block():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert text.count(BEGIN_MARKER) == 1
    assert text.count(END_MARKER) == 1
    assert text.index(BEGIN_MARKER) < text.index(END_MARKER)


class TestSplice:
    def test_splice_is_idempotent(self):
        once = experiments.splice(PROSE, FAKE_BLOCK)
        assert once != PROSE
        assert experiments.splice(once, FAKE_BLOCK) == once

    def test_prose_outside_markers_survives(self, fake_generator, tmp_path):
        target = tmp_path / "E.md"
        target.write_bytes(PROSE.encode("utf-8"))
        assert main(["experiments", str(target)]) == 0
        data = target.read_bytes().decode("utf-8")
        head, _, rest = PROSE.partition(BEGIN_MARKER)
        _, _, tail = rest.partition(END_MARKER)
        assert data == f"{head}{BEGIN_MARKER}\n\n{FAKE_BLOCK}\n{END_MARKER}{tail}"

    @pytest.mark.parametrize(
        "text",
        [
            "# no markers at all\n",
            f"only the start\n{BEGIN_MARKER}\n",
            f"only the end\n{END_MARKER}\n",
            f"{END_MARKER}\nwrong order\n{BEGIN_MARKER}\n",
        ],
    )
    def test_missing_markers_leave_the_file_untouched(
        self, fake_generator, tmp_path, text
    ):
        target = tmp_path / "E.md"
        target.write_bytes(text.encode("utf-8"))
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", str(target)])
        assert excinfo.value.code not in (0, None)
        assert "no generated block" in str(excinfo.value.code)
        assert target.read_bytes() == text.encode("utf-8")

    def test_missing_file_is_an_error(self, fake_generator, tmp_path):
        target = tmp_path / "absent.md"
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", str(target)])
        assert excinfo.value.code not in (0, None)
        assert not target.exists()

    def test_without_path_prints_the_block(self, fake_generator, capsys):
        assert main(["experiments"]) == 0
        assert capsys.readouterr().out == FAKE_BLOCK + "\n"
