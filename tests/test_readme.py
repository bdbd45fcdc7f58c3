"""The README's examples run as written: its Python API block, and its CLI lines on its own config."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from iontomo.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _only(blocks):
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_python_api_block_runs():
    exec(compile(_only([code for lang, code in BLOCKS if lang == "python"]), "README.md", "exec"), {})


def test_cli_lines_run_on_the_config_block(tmp_path, monkeypatch):
    (tmp_path / "run.json").write_text(_only([code for lang, code in BLOCKS if lang == "json"]))
    lines = _only([code for lang, code in BLOCKS if code.startswith("iontomo ")]).splitlines()
    assert len(lines) == 4
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "iontomo"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, (line, out.getvalue())
