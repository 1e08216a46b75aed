"""Count raw lines and code lines of Python files.

Usage: python tools/linecount.py PATH [PATH ...]

Prints one row per file and a total: raw lines (every line of the file)
and code lines, counted with ``tokenize``. A code line holds at least one
token of a statement. Comments, blank lines and docstrings (string
statements that stand alone) hold none; a line that continues a statement
over a line break, or a multi-line string inside one, counts.

A directory PATH counts its ``*.py`` files in sorted order. A PATH that is
neither a file nor a directory prints an error and exits 2.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count_lines(source: str) -> tuple[int, int]:
    """Raw lines and code lines of ``source``."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            # A statement of strings alone is a docstring.
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(source.splitlines()), len(code)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = []
    for path in paths:
        if Path(path).is_dir():
            files += sorted(str(p) for p in Path(path).glob("*.py"))
        elif Path(path).is_file():
            files.append(path)
        else:
            print(f"linecount: no file or directory {path}", file=sys.stderr)
            return 2
    rows = [(path, *count_lines(Path(path).read_text(encoding="utf-8"))) for path in files]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'file':<{width}}  {'raw':>6}  {'code':>6}")
    for path, raw, code in rows:
        print(f"{path:<{width}}  {raw:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
