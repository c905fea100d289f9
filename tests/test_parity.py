"""tools/parity.py: this tree's outputs against themselves, and its line diff."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_tree_against_itself_moves_nothing():
    moved, entries = parity.compare(ROOT, ROOT, quick=True)
    assert moved == []
    assert {"report_seed7/summary.txt", "report_seed7/state_output.txt",
            "commands_seed7/state_input_raw.txt", "commands_seed7/exit_codes.txt",
            "design_scan/job002.txt", "bell_scan.txt"} <= entries.keys()


def test_moved_lines_name_each_change():
    old = "label = input_corrected\nfidelity = 0.5\nfidelity_err = 0.01\nH,V,1.0,2.0\n"
    new = "label = input\nfidelity = 0.5\nfidelity_err = 0.0125\nH,V,1.0,2.5\n"
    assert parity.moved_lines(old, new) == [
        ("label", "text: 'label = input_corrected' -> 'label = input'"),
        ("fidelity_err", "abs 0.0025 rel 0.2"),
        ("line 4", "abs 0.5 rel 0.2"),
    ]
    assert parity.moved_lines(old, old.replace("H,V", "H,H")) == [
        ("line 4", "text: 'H,V,1.0,2.0' -> 'H,H,1.0,2.0'")]
    assert parity.moved_lines(old, old + "x = 1\n") == [("(file)", "text: 4 -> 5 lines")]


def test_compare_unknown_commit_exits_2_with_one_line(capsys):
    assert parity.main(["compare", "no-such-commit-e7c0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: git archive cannot read commit 'no-such-commit-e7c0'\n"
