"""The package's public surface: its star import, the README's library
example, and the names the benchmark's layer timers replace."""

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import pytest

from shortstring import (DfaCache, LatticeSpec, cli, generate, search,
                         shortest_string)
from shortstring.search import Stats

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
    result, stats, best_path, built = out.getvalue().splitlines()
    # the comments give what each print shows
    assert "# (1, 2) 0.6018611306184081" in code
    assert result == "(1, 2) 0.6018611306184081"
    assert "# subsets built, states popped" in code
    assert {"subsets_built", "popped"} <= ast.literal_eval(stats).keys()
    assert "# ((3,), 0.9): best path, not string" in code
    assert best_path == "((3,), 0.9)"
    # the same lattice built in code from arc columns
    assert "# (1, 2), as read from demo.lat" in code
    assert built == "(1, 2)"


def test_readme_cli_example(tmp_path, monkeypatch, capsys):
    # the opening example: files shown with cat, then one decode
    block = re.search(r"```\n(\$ cat demo\.lat\n.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    commands = re.split(r"^\$ ", block, flags=re.M)[1:]
    *files, decode = [command.split("\n", 1) for command in commands]
    assert [line for line, _ in files] == ["cat demo.lat", "cat demo.syms"]
    assert files[0][1] == E1_TEXT
    assert files[1][1] == E1_SYMBOLS_TEXT
    monkeypatch.chdir(tmp_path)
    for line, text in files:
        (tmp_path / line.split()[1]).write_text(text)
    line, expected = decode
    program, *argv = line.split()
    assert program == "shortstring"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected == "a b\t0.601861\n"


def test_readme_stats_list_names_every_field():
    # the --stats list, one "* `field`: meaning" bullet per field
    text = README.read_text(encoding="utf-8")
    section = text.split("`--stats` writes one JSON object", 1)[1]
    section = section.split("`--print-distances`", 1)[0]
    assert re.findall(r"^\* `(\w+)`:", section, re.M) == [
        field.name for field in dataclasses.fields(Stats)]


def test_names_the_layer_timers_patch(tmp_path, monkeypatch, capsys):
    # perfbench/layers.py times each layer by replacing these names, and
    # a decode must look each of them up at call time
    for name in ("start", "expand", "heuristic", "final_weight",
                 "is_expanded", "subset", "num_states"):
        assert hasattr(cli.DfaCache, name), name
    calls = {}
    for module, name in ((cli, "read_text"), (cli, "validate"),
                         (cli, "DfaCache"), (cli, "shortest_string"),
                         (search, "backward_distance")):
        def counted(*args, _real=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    (tmp_path / "e1.lat").write_text(E1_TEXT)
    (tmp_path / "e1.syms").write_text(E1_SYMBOLS_TEXT)
    assert cli.main(["decode", str(tmp_path / "e1.lat"), "--symbols",
                     str(tmp_path / "e1.syms")]) == 0
    assert capsys.readouterr().out == "a b\t0.601861\n"
    assert calls == {"read_text": 1, "validate": 1, "DfaCache": 1,
                     "shortest_string": 1, "backward_distance": 1}


@pytest.mark.parametrize("spec, counts", [
    # the deep, ambig and wide benchmark shapes
    (LatticeSpec(depth=300, width=4, vocab=4, skew=3.0, seed=0),
     (1620, 1070)),
    (LatticeSpec(depth=12, width=5, vocab=3, merge_prob=0.2, seed=0),
     (44, 19)),
    (LatticeSpec(depth=6, width=10, vocab=4, merge_prob=0.3, seed=0),
     (23, 8))])
def test_layer_timers_see_one_call_per_subset(spec, counts, monkeypatch):
    # a layer timer wraps the names the lazy search looks up when it
    # starts: search.step, called once per expanded subset, the heuristic
    # that search._string_heuristic builds, called once per built subset
    # on its pairs, and the cache's final_weight, called once per
    # expanded subset that has a final member. The search stores no
    # arcs, so it never calls expand
    calls = dict.fromkeys(("step", "heuristic", "final_weight", "expand"), 0)

    def counted_step(*args, _real=search.step):
        calls["step"] += 1
        return _real(*args)

    def counted_heuristic(cache, _real=search._string_heuristic):
        heuristic = _real(cache)

        def counted(pairs):
            calls["heuristic"] += 1
            return heuristic(pairs)
        return counted

    class CountedCache(DfaCache):
        def expand(self, handle):
            calls["expand"] += 1
            return super().expand(handle)

        def final_weight(self, handle):
            calls["final_weight"] += 1
            return super().final_weight(handle)

    monkeypatch.setattr(search, "step", counted_step)
    monkeypatch.setattr(search, "_string_heuristic", counted_heuristic)
    a = generate(spec)
    cache = CountedCache(a)
    stats = shortest_string(a, cache=cache).stats
    assert (stats.subsets_built, stats.popped) == counts
    expanded = [handle for handle in range(cache.num_states)
                if cache.is_expanded(handle)]
    with_final = [handle for handle in expanded
                  if any(state in a.finals
                         for state, _ in cache.subset(handle))]
    # the super-final pop is counted in popped and steps nothing
    assert len(expanded) == stats.popped - 1
    assert with_final
    assert calls == {"step": len(expanded),
                     "heuristic": stats.subsets_built,
                     "final_weight": len(with_final),
                     "expand": 0}
