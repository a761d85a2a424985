"""Command-line error reporting: bad input ends in one ``error:`` line on
stderr and exit code 2, never a traceback."""

import pytest

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
])
def test_run_rejects_bad_schedule(tmp_path, capsys, config, message):
    path = tmp_path / "exp.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_verify_passes(capsys):
    # one PASS line per built-in invariant suite, and exit status 0
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 7
    assert not any("FAIL" in line for line in lines)
