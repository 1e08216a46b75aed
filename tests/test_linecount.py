"""`tools/linecount.py` counts raw lines and code lines: comments, blank
lines and docstrings are not code; continued statements and strings
inside statements are."""

import importlib.util
from pathlib import Path

LINECOUNT = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"

SNIPPET = '''"""Module docstring
over two lines."""

import math  # a trailing comment

# A comment line.


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return """a string
in a statement"""


class C:
    "Docstring" " in two parts."
    z = 1
'''


def load_linecount():
    spec = importlib.util.spec_from_file_location("linecount", LINECOUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_raw_and_code_lines():
    # Code: import, def, the two lines of y, the two lines of the return,
    # class and z.
    assert load_linecount().count_lines(SNIPPET) == (19, 8)


def test_empty_source_and_last_line_without_newline():
    count_lines = load_linecount().count_lines
    assert count_lines("") == (0, 0)
    assert count_lines("x = 1\ny = 2") == (2, 2)


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    files = [str(tmp_path / "a.py"), str(tmp_path / "b.py")]
    assert load_linecount().main(files) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "raw", "code"], [files[0], "19", "8"], [files[1], "1", "1"],
                    ["total", "20", "9"]]


def test_directory_counts_its_python_files_in_sorted_order(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert load_linecount().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "raw", "code"], [str(tmp_path / "a.py"), "1", "1"],
                    [str(tmp_path / "b.py"), "19", "8"], ["total", "20", "9"]]


def test_missing_path_prints_one_line_and_exits_2(tmp_path, capsys):
    assert load_linecount().main([str(tmp_path / "missing.py")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert "missing.py" in out.err
