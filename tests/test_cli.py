"""Command-line error reporting: bad input ends in one ``error:`` line on
stderr and exit code 2, never a traceback."""

import os
import subprocess
import sys

import pytest

import pae
from pae import circuit, driver, experiments
from pae.cli import main


@pytest.mark.parametrize("argv,message", [
    (["--T", "-1"], "evolution strength must be positive"),
    (["--T", "1", "--eps-oc", "2"], "state-error budget must lie in (0, 1)"),
    (["--T", "1", "--L", "7"], "query length must be a positive even integer"),
    (["--T", "0.5", "--L", "2"], "completion failed"),
    (["--T", "2048", "--L", "2000"], "truncation bound inf >= 1"),
    (["--T", "nan"], "evolution strength must be positive and finite"),
    (["--T", "inf", "--L", "10"], "evolution strength must be positive and finite"),
    (["--T", "inf"], "evolution strength must be positive and finite"),
])
def test_angles_rejects_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "angles.txt"
    assert main(["angles", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ("amplitudes = 0.5\nk_max = 2\ntrials = 1\nstrategy = bogus\n",
     "unknown strategy"),
    ("experiment = tl_curve\nt_step = 0\n", "t_step must be positive"),
    ("amplitudes = 0.5\nk_max = 10\ntrials = 1\nstrategy = full_parallel\n"
     "l_table = plus\n", "l_table has 9 entries"),
    ("experiment = bias_sweep\nbackend = analytic\namplitudes = 0.5\nk_min = 10\n"
     "k_max = 10\nshots = 10\n", "l_table has 9 entries"),
    ("amplitudes = 0.5\nk_max = 3\ntrials = 1\nstrategy = general\n"
     "parallelism = 3\n", "power-of-two parallelism"),
    ("experiment = rmse_vs_queries\namplitudes = 0.5\nk_max = 1\ntrials = 2\n"
     "nu_final = 0\n", "final shot count must be >= 1, got 0"),
    ("experiment = rmse_vs_queries\namplitudes = 0.5\nk_max = 2\ntrials = 2\n"
     "nu_final = -3\n", "final shot count must be >= 1, got -3"),
    ("experiment = single_run\nbackend = statevector\namplitudes = 0.5\nn = 30\n"
     "k_max = 2\n", "31 qubits exceed the statevector guard of 22"),
    ("experiment = rmse_vs_queries\nk_max = 2\ntrials = 2\n",
     "rmse_vs_queries needs 'amplitudes' or 'amplitude_grid'"),
    ("experiment = rmse_vs_depth\nk_max = 2\ntrials = 2\n",
     "rmse_vs_depth needs 'amplitudes' or 'amplitude_grid'"),
    ("experiment = bias_sweep\nbackend = analytic\namplitudes = 0.5\nk_max = 2\n"
     "shots = 10\nseed = -1\n", "field 'seed': must be >= 0, got -1"),
    ("experiment = tl_curve\nt_min = 5\nt_max = 2\n",
     "empty or unbounded strength grid: t_min 5.0, t_max 2.0"),
    ("experiment = tl_curve\nt_max = inf\n",
     "empty or unbounded strength grid: t_min 1.0, t_max inf"),
    ("experiment = tl_curve\nt_min = nan\n",
     "empty or unbounded strength grid: t_min nan, t_max 100.0"),
    ("experiment = tl_curve\nt_step = nan\n", "t_step must be positive and finite, got nan"),
    ("experiment = single_run\nk_max = 2\n",
     "single_run needs 'amplitudes' or 'amplitude_grid'"),
    ("amplitudes = 0.5\nk_max = 2\ntrials = 2\njobs = 2\n",
     "field 'jobs': must be 1, got 2"),
])
def test_run_rejects_bad_schedule(tmp_path, capsys, config, message):
    path = tmp_path / "exp.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_amplitudes_with_amplitude_grid(tmp_path, capsys, monkeypatch):
    # the grid used to replace the listed amplitudes without a word
    calls = []
    monkeypatch.setattr(experiments, "run_single", lambda cfg: calls.append(cfg) or [])
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = single_run\namplitudes = 0.3\namplitude_grid = 3\n"
                    "k_max = 2\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: fields 'amplitudes' and 'amplitude_grid': "
                   "set one, not both\n")
    assert calls == []


def test_run_rejects_negative_seed_option(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = bias_sweep\nbackend = analytic\namplitudes = 0.5\n"
                    "k_max = 2\nshots = 10\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: field 'seed': must be >= 0, got -1\n"
    assert not out.exists()


def test_run_reports_directory_as_config(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


def test_run_reports_file_as_output_directory(tmp_path, capsys, monkeypatch):
    # the output directory is checked before the experiment runs
    calls = []
    monkeypatch.setattr(experiments, "run_tl_curve", lambda cfg: calls.append(cfg) or [])
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = tl_curve\nt_max = 2\n")
    out = tmp_path / "out"
    out.write_text("keep")
    for target in (out, out / "sub"):
        assert main(["run", str(path), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert calls == []
    assert out.read_text() == "keep"


def test_run_rejects_empty_output_directory(tmp_path, capsys, monkeypatch):
    # an empty output directory is refused before the experiment runs, from
    # the config file and from --out alike
    calls = []
    monkeypatch.setattr(experiments, "run_tl_curve", lambda cfg: calls.append(cfg) or [])
    empty = tmp_path / "empty.cfg"
    empty.write_text("experiment = tl_curve\nt_max = 2\noutput_dir =\n")
    plain = tmp_path / "plain.cfg"
    plain.write_text("experiment = tl_curve\nt_max = 2\n")
    for argv in (["run", str(empty)], ["run", str(plain), "--out", ""]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'output_dir'" in err and err.count("\n") == 1
    assert calls == []


def test_angles_reports_directory_as_output(tmp_path, capsys):
    assert main(["angles", "--T", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


def test_verify_passes(capsys):
    # one PASS line per built-in invariant suite, and exit status 0
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 7
    assert not any("FAIL" in line for line in lines)


def test_verify_fails_on_wrong_parity_contraction(capsys, monkeypatch):
    exact = circuit._parity_probabilities
    monkeypatch.setattr(circuit, "_parity_probabilities",
                        lambda blocks, P: exact(blocks, P) + 1e-9)
    assert main(["verify"]) == 1
    # backend-equivalence fails too, since the analytic backend contracts
    # through the same function
    assert "FAIL  parity-closed-form: max deviation 1.00e-09" in capsys.readouterr().out


def test_verify_fails_on_wrong_shared_block_contraction(capsys, monkeypatch):
    # the backend check goes through the driver's probability phase, where
    # analytic steps share their eigenphase blocks
    exact = driver._analytic_columns
    monkeypatch.setattr(driver, "_analytic_columns",
                        lambda thetas, steps: [c + 1e-9 for c in exact(thetas, steps)])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  backend-equivalence: max deviation 1.00e-09" in out
    assert "PASS  parity-closed-form" in out


def test_cli_import_starts_no_process_machinery():
    # every run is serial: importing the CLI loads no process-pool modules
    code = ("import pae.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(pae.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
