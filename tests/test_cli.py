"""CLI and pipeline tests (small Monte-Carlo sizes to stay fast)."""
from dataclasses import replace

import numpy as np
import pytest

from entconv.cli import main
from entconv.config import default_config, save_config
from entconv.counts import read_counts_csv, write_counts_csv
from entconv.pipeline import COUNT_FILES, run_simulate
from entconv.reports import parse_report


@pytest.fixture()
def config_path(tmp_path):
    config = default_config()
    config.mc_samples = 4
    path = tmp_path / "exp.ini"
    save_config(config, path)
    return path


def test_write_config(tmp_path):
    path = tmp_path / "defaults.ini"
    assert main(["write-config", "--path", str(path)]) == 0
    assert path.exists()


def test_simulate_writes_four_csvs(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out), "simulate"]) == 0
    for name in COUNT_FILES.values():
        assert (out / name).exists()
    assert len(read_counts_csv(out / COUNT_FILES["chsh"])) == 16
    assert len(read_counts_csv(out / COUNT_FILES["state_output"])) == 36


def test_simulate_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--config", str(config_path), "--out", str(out1), "simulate"])
    main(["--config", str(config_path), "--out", str(out2), "simulate"])
    for name in COUNT_FILES.values():
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_counts(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--config", str(config_path), "--out", str(out1), "simulate"])
    main(["--config", str(config_path), "--out", str(out2), "--seed", "7", "simulate"])
    assert (out1 / COUNT_FILES["chsh"]).read_bytes() != (out2 / COUNT_FILES["chsh"]).read_bytes()


def test_reconstruct_state_closed_loop(tmp_path, config_path):
    out = tmp_path / "out"
    main(["--config", str(config_path), "--out", str(out), "simulate"])
    code = main(["--config", str(config_path), "--out", str(out),
                 "--mc-samples", "4", "reconstruct-state"])
    assert code == 0
    items, matrix = parse_report((out / "state_output.txt").read_text())
    assert items["converged"] == "True"
    assert matrix.shape == (4, 4)
    assert 0.9 < float(items["fidelity"]) < 1.0


def test_reconstruct_process(tmp_path, config_path):
    out = tmp_path / "out"
    main(["--config", str(config_path), "--out", str(out), "simulate"])
    code = main(["--config", str(config_path), "--out", str(out),
                 "--mc-samples", "4", "reconstruct-process"])
    assert code == 0
    items, matrix = parse_report((out / "process_chi.txt").read_text())
    assert float(items["fidelity"]) > 0.98
    assert matrix.shape == (4, 4)


def test_chsh_command(tmp_path, config_path):
    out = tmp_path / "out"
    main(["--config", str(config_path), "--out", str(out), "simulate"])
    assert main(["--config", str(config_path), "--out", str(out), "chsh"]) == 0
    items, _ = parse_report((out / "chsh.txt").read_text())
    assert 2.0 < float(items["s_value"]) < 2 * np.sqrt(2)
    assert float(items["s_sigma"]) > 0


def test_efficiency_command(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out), "efficiency"]) == 0
    items, _ = parse_report((out / "efficiency.txt").read_text())
    assert float(items["photon_conversion_observed"]) == pytest.approx(0.00633, abs=5e-5)


def test_invalid_config_exits_2(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[run]\nseed = not-a-number\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 2


@pytest.mark.parametrize("line, supported", [("fit_normalization = True", "False"),
                                             ("tp_mode = normalize", "constrain"),
                                             ("start = mixed", "inversion")])
def test_retired_key_off_its_value_exits_2(tmp_path, config_path, capsys, line, supported):
    text = config_path.read_text()
    config_path.write_text(text.replace("[tomography]\n", f"[tomography]\n{line}\n"))
    assert main(["--config", str(config_path), "--out", str(tmp_path / "o"), "simulate"]) == 2
    key = line.split(" =")[0]
    assert f"[tomography] {key}: retired, only {supported!r} is supported" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-3", "seed must be >= 0, got -3"),
    ("--mc-samples", "1", "mc_samples must be >= 2, got 1"),
])
def test_invalid_override_exits_2(tmp_path, capsys, option, value, message):
    assert main([option, value, "--out", str(tmp_path / "o"), "simulate"]) == 2
    assert message in capsys.readouterr().err


def test_missing_counts_exits_4(tmp_path, config_path):
    code = main(["--config", str(config_path), "--out", str(tmp_path / "o"),
                 "chsh", "--counts", str(tmp_path / "absent.csv")])
    assert code == 4


def test_invalid_count_data_exits_5(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["--config", str(config_path), "--out", str(out), "simulate"])
    path = out / COUNT_FILES["state_output"]
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = "nan"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["--config", str(config_path), "--out", str(out), "reconstruct-state"])
    assert code == 5
    assert "coincidences must be finite" in capsys.readouterr().err


def test_non_convergence_exits_3(tmp_path):
    config = default_config()
    config.tomography.max_iters = 1
    config.mc_samples = 2
    path = tmp_path / "tight.ini"
    save_config(config, path)
    out = tmp_path / "out"
    main(["--config", str(path), "--out", str(out), "simulate"])
    code = main(["--config", str(path), "--out", str(out),
                 "--mc-samples", "2", "reconstruct-state"])
    assert code == 3


def test_report_without_convergence_writes_everything_and_exits_3(tmp_path, capsys):
    config = default_config()
    config.tomography.max_iters = 1
    path = tmp_path / "tight.ini"
    save_config(config, path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--mc-samples", "2", "report"]) == 3
    for name in ("summary.txt", "state_input_raw.txt", "state_input.txt", "state_output_raw.txt",
                 "state_output.txt", "process_chi.txt", "chsh.txt", "efficiency.txt",
                 *COUNT_FILES.values()):
        assert (out / name).exists()
    items, _ = parse_report((out / "summary.txt").read_text())
    assert items["all_reconstructions_converged"] == "False"
    assert ("reconstructions did not converge: input_raw, input_corrected, output_raw, "
            "output_corrected, process") in capsys.readouterr().err


def test_reconstruction_error_exits_3(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["--config", str(config_path), "--out", str(out), "simulate"])
    path = out / COUNT_FILES["state_output"]
    write_counts_csv(path, [replace(r, coincidences=0.0) for r in read_counts_csv(path)])
    code = main(["--config", str(config_path), "--out", str(out), "reconstruct-state"])
    assert code == 3
    assert "all counts are zero" in capsys.readouterr().err


def test_noiseless_ideal_config_closed_loop(tmp_path):
    # perfect source, lossless-coherence conversion, no accidentals, expected
    # counts: reconstruction must return the Bell state essentially exactly
    config = default_config()
    config.noiseless = True
    config.mc_samples = 2
    config.source.kind = "werner"
    config.source.p = 1.0
    config.source.state = None
    config.conversion.dephase = 1.0
    for det in config.detection.values():
        det.singles_rate_a = det.singles_rate_b = 0.0
    path = tmp_path / "ideal.ini"
    save_config(config, path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "simulate"]) == 0
    assert main(["--config", str(path), "--out", str(out),
                 "--mc-samples", "2", "reconstruct-state"]) == 0
    items, _ = parse_report((out / "state_output.txt").read_text())
    assert float(items["fidelity"]) > 1 - 1e-6


def test_simulated_counts_respect_singles_bound(tmp_path, config_path):
    out = tmp_path / "out"
    run_simulate(default_config(), out)
    for name in COUNT_FILES.values():
        for rec in read_counts_csv(out / name):
            assert rec.coincidences <= min(rec.singles_a, rec.singles_b)
