"""Print the code tokens of ``src/qdblab/*.py``: the size metric of ROADMAP.md.

A code token is a token of Python's ``tokenize`` that is not a string, a
comment, a line break, an indent or dedent, the encoding or the end marker,
so docstrings and comments do not count.  An f-string is one string token
up to Python 3.11; from 3.12 on, whose tokenizer splits it into parts, all
of its parts are skipped, so every version gives the same count.  Run from
anywhere:

    python tools/code_tokens.py
"""

import tokenize
from pathlib import Path

SKIPPED = {"STRING", "COMMENT", "NEWLINE", "NL", "INDENT", "DEDENT", "ENCODING", "ENDMARKER", "FSTRING_END"}


def code_tokens(path: Path) -> int:
    count = depth = 0
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            name = tokenize.tok_name[tok.type]
            depth += (name == "FSTRING_START") - (name == "FSTRING_END")
            count += not depth and name not in SKIPPED
    return count


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src" / "qdblab"
    print(sum(code_tokens(path) for path in sorted(src.glob("*.py"))))
