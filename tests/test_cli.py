"""Command-line error reporting: bad input ends in one ``error:`` line on
stderr and exit code 2, never a traceback."""

import pytest

from pae.cli import main


@pytest.mark.parametrize("argv,message", [
    (["--T", "-1"], "evolution strength must be positive"),
    (["--T", "1", "--eps-oc", "2"], "state-error budget must lie in (0, 1)"),
    (["--T", "1", "--L", "7"], "query length must be a positive even integer"),
    (["--T", "0.5", "--L", "2"], "completion failed"),
])
def test_angles_rejects_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "angles.txt"
    assert main(["angles", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()
