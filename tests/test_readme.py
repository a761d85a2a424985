"""The README's library example and config example run as written."""

import re
from pathlib import Path

from pae import parse_config
from pae.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", readme_section("Library example"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    a_hat, n_queries, depth, width = capsys.readouterr().out.split()
    assert 0.0 <= float(a_hat) <= 1.0
    assert (int(n_queries), int(depth), int(width)) > (0, 0, 0)


def test_config_example_runs(tmp_path, capsys):
    # the one config block of the command-line section, parsed and run
    block = re.search(r"```\n(experiment = .*?)```", readme_section("Command line"),
                      re.S).group(1)
    cfg = parse_config(block)
    assert (cfg.experiment, cfg.backend, cfg.k_max) == ("rmse_vs_queries", "ideal", 9)
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == ["rmse_vs_queries.csv", "rmse_vs_queries.svg"]
    assert f"wrote {out / 'rmse_vs_queries.csv'}" in capsys.readouterr().out
