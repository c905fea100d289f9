"""tools/parity.py: this tree's outputs against themselves, and its line diff."""
import importlib.util
from pathlib import Path

import numpy as np

from entconv.states import MetricReport
from entconv.tomography import TomographyResult

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
        ("label", "text: 'label = input_corrected' -> 'label = input'", None),
        ("fidelity_err", "abs 0.0025 rel 0.2", (0.0125 - 0.01) / 0.0125),
        ("line 4", "abs 0.5 rel 0.2", (2.5 - 2.0) / 2.5),
    ]
    assert parity.moved_lines(old, old.replace("H,V", "H,H")) == [
        ("line 4", "text: 'H,V,1.0,2.0' -> 'H,H,1.0,2.0'", None)]
    assert parity.moved_lines(old, old + "x = 1\n") == [("(file)", "text: 4 -> 5 lines", None)]


def test_listing_ends_with_the_largest_relative_change():
    moved = [("a.txt", "(file)", "only in new", None),
             ("b.txt", "fidelity", "abs 1e-15 rel 1.2e-15", 1.2e-15),
             ("b.txt", "label", "text: 'label = x' -> 'label = y'", None),
             ("c/job001.txt", "process_log_likelihood", "abs 3e-09 rel 9e-18", 9e-18),
             ("c/job002.txt", "fidelity_err", "abs 4e-12 rel 4.2e-10", 4.2e-10)]
    assert parity.listing(moved) == [
        "a.txt  (file)  only in new",
        "b.txt  fidelity  abs 1e-15 rel 1.2e-15",
        "b.txt  label  text: 'label = x' -> 'label = y'",
        "c/job001.txt  process_log_likelihood  abs 3e-09 rel 9e-18",
        "c/job002.txt  fidelity_err  abs 4e-12 rel 4.2e-10",
        "largest relative change: 4.2e-10 in c/job002.txt  fidelity_err",
    ]
    assert parity.listing(moved[2:3]) == ["b.txt  label  text: 'label = x' -> 'label = y'"]


def test_fit_lines_write_plain_floats(tmp_path):
    fit = TomographyResult(np.eye(2, dtype=complex), np.float64(333607816.9955585), 7, True,
                           MetricReport(fidelity=1.0, purity=1.0))
    parity._write_fit(tmp_path / "fit.txt", {"process": fit})
    assert (tmp_path / "fit.txt").read_text().splitlines()[:3] == [
        "process_log_likelihood = 333607816.9955585", "process_iterations = 7",
        "process_converged = True"]


def test_compare_unknown_commit_exits_2_with_one_line(capsys):
    assert parity.main(["compare", "no-such-commit-e7c0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: git archive cannot read commit 'no-such-commit-e7c0'\n"
