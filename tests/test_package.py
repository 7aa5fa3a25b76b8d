"""The package's public surface: its star import and the README's
library example."""

import ast
import contextlib
import io
import re
from pathlib import Path

from conftest import E1_SYMBOLS_TEXT, E1_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import():
    # every name in __all__ must exist
    exec("from shortstring import *", {})


def test_readme_library_example(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "demo.lat").write_text(E1_TEXT)
    (tmp_path / "demo.syms").write_text(E1_SYMBOLS_TEXT)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    result, stats, best_path = out.getvalue().splitlines()
    # the comments give what each print shows
    assert "# (1, 2) 0.6018611306184081" in code
    assert result == "(1, 2) 0.6018611306184081"
    assert "# subsets built, states popped" in code
    assert {"subsets_built", "popped"} <= ast.literal_eval(stats).keys()
    assert "# ((3,), 0.9): best path, not string" in code
    assert best_path == "((3,), 0.9)"
