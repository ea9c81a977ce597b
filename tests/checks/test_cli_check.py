"""`repro check` CLI: exit codes, --json shape, --list, --update-baseline."""

import json

from repro.cli import main

_CLEAN = {
    "store/store.py": """\
    SCHEMA_VERSION = 1

    STABLE_COLUMNS = ("run_key",)
    """
}

_DIRTY = {
    "kernels/bad.py": """\
    def f(mods):
        for m in set(mods):
            use(m)
    """
}


def test_check_exits_zero_on_clean_tree(make_project, capsys):
    root = make_project(_CLEAN)
    assert main(["check", "--root", str(root), "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out


def test_check_exits_nonzero_and_names_file_line(make_project, capsys):
    root = make_project(_DIRTY)
    assert main(["check", "--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/kernels/bad.py:2: det-set-iteration" in out


def test_check_json_report(make_project, capsys):
    root = make_project(_DIRTY)
    assert main(["check", "--root", str(root), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fired"] == 1
    assert payload["violations"][0]["rule"] == "det-set-iteration"
    assert payload["violations"][0]["line"] == 2


def test_check_rule_filter(make_project, capsys):
    root = make_project(_DIRTY)
    # Filtered to an unrelated rule, the dirty tree is clean.
    assert main(["check", "--root", str(root), "--rule", "det-wallclock"]) == 0
    capsys.readouterr()


def test_check_list_prints_catalogue(capsys):
    assert main(["check", "--list"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "det-unseeded-rng",
        "det-set-iteration",
        "det-wallclock",
        "reg-spec-invariants",
        "reg-kernel-module",
        "reg-compact-parity",
        "pure-kernel-networkx",
        "pure-kernel-node-loop",
        "pure-csr-mutation",
        "pure-glue-cached-view",
        "exc-blind-except",
        "schema-freeze",
        "fork-global-write",
        "waiver-syntax",
    ):
        assert rule in out


def test_check_update_baseline_writes_and_greens(make_project, capsys):
    root = make_project(_CLEAN)
    assert main(["check", "--root", str(root)]) == 1  # missing baseline
    capsys.readouterr()
    assert main(["check", "--root", str(root), "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert "schema_baseline.json" in out
    baseline = root / "src" / "repro" / "checks" / "schema_baseline.json"
    assert json.loads(baseline.read_text())["store"]["version"] == 1
    assert main(["check", "--root", str(root)]) == 0
