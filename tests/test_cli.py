"""Command-line error reporting: bad input ends in one ``error:`` line on
stderr and exit code 2, never a traceback."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pae
from pae import circuit, experiments, qsp
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
    # checked before synthesis cuts the length down, so 41 is named, not 21
    (["--T", "1", "--L", "41"], "query length must be a positive even integer, got 41"),
    # refused before the Bessel recurrence, which raised a bare numpy ValueError
    (["--T", "1e60", "--L", "4"], "truncation bound 8.33e+178 >= 1; increase L"),
])
def test_angles_rejects_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "angles.txt"
    assert main(["angles", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def refuse_synthesis(monkeypatch):
    """Make the Bessel recurrence and the peel raise, so that a command
    that runs past the length check fails by assertion, not by its size."""
    def refuse(*args):
        raise AssertionError("synthesis ran past the guard")

    monkeypatch.setattr(qsp, "_bessel_j", refuse)
    monkeypatch.setattr(qsp, "_solve_layer_peel", refuse)


@pytest.mark.parametrize("T,message", [
    ("1e300", "evolution strength 1e+300 needs a query length above 2^62"),
    ("1e9", "angles miss the target: residual at least 5.32e-05, the rounding bound of "
            "any length-2718281826 product, past the tolerance 1e-08"),
    ("3e5", "angles miss the target: residual at least 1.59e-08, the rounding bound of "
            "any length-815490 product, past the tolerance 1e-08"),
])
def test_angles_refuses_strength_too_large_to_synthesize(tmp_path, capsys, monkeypatch,
                                                         T, message):
    # these used to end in an OverflowError traceback, at 1e300, in a
    # recurrence over about 1.4e9 floats, at 1e9, and in a peel of about 40
    # minutes before its residual failed, at 3e5; all are refused before
    # any work
    refuse_synthesis(monkeypatch)
    out = tmp_path / "angles.txt"
    assert main(["angles", "--T", T, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_angles_refuses_length_that_cannot_certify(tmp_path, capsys, monkeypatch):
    # the solve length at T = 1 is 20, but the peel pads to the requested
    # L and the tree multiplies all of it: 2e9 angles, refused first
    refuse_synthesis(monkeypatch)
    out = tmp_path / "angles.txt"
    assert main(["angles", "--T", "1", "--L", "2000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: shifter T=1.0, L=2000000000 (solve length 20): angles miss the "
                   "target: residual at least 3.91e-05, the rounding bound of any "
                   "length-2000000000 product, past the tolerance 1e-08\n")
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
     "k_max = 2\n", "statevector blocks at n = 30 for 1 amplitude need 3.44e+11 GiB, over the "
     "1 GiB guard"),
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
    # lgamma used to overflow inside the length search
    ("experiment = tl_curve\nt_min = 1e308\nt_max = 1e308\n",
     "evolution strength 1e+308 needs a query length above 2^62, past a signed 64-bit count"),
    # the frequency table of 56.8 PiB died with a numpy allocation error,
    # and so did the bias sweep's grid of 7.11 PiB; a tl_curve of 1e15
    # strengths ran with no output until killed
    ("amplitudes = 0.5\nk_max = 2\ntrials = 1000000000000000\n",
     "the frequency table, 2 x 1000000000000000 x 2 x 2 floats, needs 5.96e+07 GiB, "
     "over the 1 GiB guard"),
    ("experiment = bias_sweep\nbackend = analytic\namplitude_grid = 1000000000000000\n"
     "k_max = 2\n", "the probability table, 1000000000000000 x 2 x 2 floats, needs "
     "2.98e+07 GiB, over the 1 GiB guard"),
    ("experiment = tl_curve\nt_max = 1e15\n", "strength grid t_min 1.0 to t_max "
     "1000000000000000.0 in steps of 1.0 has more than 100000 points, the row limit"),
    ("experiment = single_run\nk_max = 2\n",
     "single_run needs 'amplitudes' or 'amplitude_grid'"),
    ("amplitudes = 0.5\nk_max = 2\ntrials = 2\njobs = 2\n",
     "field 'jobs': must be 1, got 2"),
    # 2^63 branches were read as a float, "branch count must be an integer,
    # got 1.0", and at k = 65 the ideal backend raised a TypeError
    ("experiment = single_run\nbackend = analytic\namplitudes = 0.5\nk_max = 64\n"
     "strategy = full_parallel\n", "step 64: the multiplier 2^(k-1) = 2^63 must fit a "
     "signed 64-bit count, so k <= 63"),
    ("experiment = single_run\nbackend = ideal\namplitudes = 0.5\nk_max = 65\n"
     "strategy = full_parallel\n", "step 64: the multiplier 2^(k-1) = 2^63 must fit a "
     "signed 64-bit count, so k <= 63"),
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


@pytest.mark.parametrize("target,message", [
    ("missing/dir/x.txt", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
    ("file/x.txt", "[Errno 20] Not a directory"),
])
def test_angles_checks_output_before_synthesis(tmp_path, capsys, monkeypatch, target,
                                               message):
    # an output path that open() would refuse is refused before the shifter
    # is synthesized, with the error open() would give
    calls = []
    monkeypatch.setattr(qsp, "synthesize_shifter", lambda *args: calls.append(args))
    (tmp_path / "file").write_text("keep")
    out = tmp_path / target
    assert main(["angles", "--T", "2048", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert calls == []
    assert (tmp_path / "file").read_text() == "keep"


def test_angles_synthesizes_certified_length(tmp_path, capsys):
    # the shortest length that meets the budget, 716 at T = 256, rather
    # than the closed form's 1922, which synthesis cuts to 734
    out = tmp_path / "angles.txt"
    assert main(["angles", "--T", "256", "--eps-oc", "0.01", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"T=256 L={qsp.select_L(256.0, 0.01)} ")
    assert float(lines[0].split("state-error budget=")[1]) <= 0.01
    assert lines[1] == f"wrote {out}"
    assert qsp.load_angles(out).L == qsp.select_L(256.0, 0.01)


def test_angles_refuses_budget_below_floor(tmp_path, capsys):
    # at T = 1 no length certifies 1e-5: synthesis would cut it to 20,
    # whose state error is 3.96e-5
    out = tmp_path / "angles.txt"
    assert main(["angles", "--T", "1", "--eps-oc", "1e-5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: state-error budget 1e-05 at T=1 is below the floor 3.96e-05 "
                   "that synthesis certifies at its solve length 20\n")
    assert not out.exists()


def test_verify_passes(capsys):
    # one PASS line per built-in invariant suite, and exit status 0
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 10
    assert not any("FAIL" in line for line in lines)


def test_verify_fails_on_wrong_parity_contraction(capsys, monkeypatch):
    exact = circuit.parity_probabilities
    monkeypatch.setattr(circuit, "parity_probabilities",
                        lambda blocks, P: exact(blocks, P) + 1e-9)
    assert main(["verify"]) == 1
    # backend-equivalence fails too, since the analytic backend contracts
    # through the same function
    assert "FAIL  parity-closed-form: max deviation 1.00e-09" in capsys.readouterr().out


def test_verify_fails_on_wrong_shared_block_contraction(capsys, monkeypatch):
    # the backend check goes through the driver's probability phase, where
    # analytic steps share their eigenphase blocks from one stage call; the
    # closed-form check builds its own blocks
    exact = circuit.analytic_stage
    monkeypatch.setattr(circuit, "analytic_stage", lambda requests, thetas: [
        {s: blocks + 1e-9 for s, blocks in stage.items()} for stage in exact(requests, thetas)])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  backend-equivalence: max deviation" in out
    assert "PASS  parity-closed-form" in out


def test_verify_fails_on_blocks_moved_only_in_a_run_level_stage(capsys, monkeypatch):
    # blocks 1e-9 off only where one stage call serves several shifters:
    # every batch-of-one call, and the backend check's one shifter, stay
    # exact, so only the synthesis-batch check's staging sees it
    exact = circuit.analytic_stage

    def moved(requests, thetas):
        stages = exact(requests, thetas)
        if len(stages) == 1:
            return stages
        return [{s: blocks + 1e-9 for s, blocks in stage.items()} for stage in stages]

    monkeypatch.setattr(circuit, "analytic_stage", moved)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "synthesis-batch" in line)
    assert line == "FAIL  synthesis-batch: differ at " + ", ".join(
        f"staged T={T} L={L}" for T, L in ((1, 10), (1, 12), (1, 14), (1, 16), (1, 18),
                                           (1, 20), (2, 14), (4, 22), (8, 34)))
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 9


def test_verify_fails_on_row_off_by_1e_9(capsys, monkeypatch):
    # a row kept 1e-9 off the one the residual was measured on leaves the
    # certificate as it was, but the analytic stage evaluates it and misses
    # the layer-by-layer product, by 1.6e-8 at S = 16; the backend check
    # sees it too, through the same stage, while the shifter-error check
    # reads the product alone
    certify = qsp._certify_angles

    def off_row(xis, ps):
        sequences = certify(xis, ps)
        for seq in sequences:
            seq.row[len(seq.row) // 2, 0] += 1e-9
        return sequences

    monkeypatch.setattr(qsp, "_certify_angles", off_row)
    monkeypatch.setattr(qsp, "_shifter_cache", {})
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "row-evaluation" in line)
    assert line == "FAIL  row-evaluation: max deviation 1.60e-08"
    assert "FAIL  backend-equivalence" in out
    assert "PASS  shifter-certified-error" in out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 8


def test_verify_fails_on_certificate_at_full_length(capsys, monkeypatch):
    # a reloaded shifter certified at its full L rather than at the length
    # synthesis truncates at (20 for T = 1, L = 40) claims a far smaller error
    exact = qsp.load_angles

    def at_full_length(path):
        spec = exact(path)
        delta = qsp.truncation_error_bound(spec.T, spec.L)
        return dataclasses.replace(spec, eps_oc=qsp.state_error_bound(delta))

    monkeypatch.setattr(qsp, "load_angles", at_full_length)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  angle-file-roundtrip: mismatch (eps_oc 1.093e-12 vs 3.957e-05)" in out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 9


def test_verify_fails_on_loading_that_trusts_the_header(capsys, monkeypatch):
    # a loader that takes the header's residual and the angles on trust
    # round-trips a clean file but also loads the corrupted copy
    def trusting(path):
        T, L, _, residual, *angles = Path(path).read_text().split()
        angles = qsp.AngleSequence(np.array(angles, dtype=float), float(residual))
        return dataclasses.replace(qsp.synthesize_shifter(float(T), int(L)), angles=angles)

    monkeypatch.setattr(qsp, "load_angles", trusting)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  angle-file-roundtrip: bit-exact, corrupted copy loaded" in out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 9


def test_verify_fails_on_product_without_mirror_symmetry(capsys, monkeypatch):
    # a stray phase e^{1e-9 i theta}, not conjugate-symmetric about pi, moves
    # the realized product off the coefficients that certify it: its miss on
    # the dense grid, up to 2 pi 1e-9, leaves the residual bound
    exact = qsp.rotation_product
    monkeypatch.setattr(qsp, "rotation_product", lambda xi, thetas: exact(xi, thetas)
                        * np.exp(1e-9j * np.asarray(thetas))[:, None, None])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "certificate-grid" in line)
    assert line == "FAIL  certificate-grid: residual 6.27e-09 on 544 points against bound 5.93e-13"
    # the row check compares the analytic stage, which never calls the
    # product, with it, so it sees the stray phase too
    assert "FAIL  row-evaluation: max deviation" in out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 8
    assert "PASS  shifter-certified-error" in out


def test_verify_fails_on_batch_that_rounds_otherwise(capsys, monkeypatch):
    # a batch whose angles sit one ulp off the batch of one's still
    # certifies, but it is not bit for bit, and the check names every key
    peel = qsp._solve_layer_peel

    def nudged(rows, lengths):
        xis = peel(rows, lengths)
        return [np.nextafter(xi, np.inf) for xi in xis] if len(rows) > 1 else xis

    monkeypatch.setattr(qsp, "_solve_layer_peel", nudged)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL  synthesis-batch: differ at T=1 L=10, T=1 L=12, T=1 L=14, T=1 L=16, "
            "T=1 L=18, T=1 L=20, T=2 L=14, T=4 L=22, T=8 L=34\n") in out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 9


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
