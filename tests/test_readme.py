"""The README's Python API examples and command lines run as written."""

import re
import shlex
import shutil
from pathlib import Path

from fracpast.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_sh_command_lines_run(tmp_path, monkeypatch, capsys):
    # Each `fracpast ...` line runs from a directory holding data/ and out/,
    # and exits 0 unless its comment says it exits 2.
    shutil.copytree(ROOT / "data", tmp_path / "data")
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("fracpast ")]
    assert lines
    for line in lines:
        expected = 2 if "# exits 2" in line else 0
        assert main(shlex.split(line, comments=True)[1:]) == expected, line
        capsys.readouterr()
