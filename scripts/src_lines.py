#!/usr/bin/env python3
"""Count the code lines under src/: non-blank lines of every *.cc and
*.hh file after block (/* ... */) and line (//) comments are stripped.

This is the line count CHANGES.md reports per change. It prints one
line per file (path relative to the root, sorted) and the total last:

    python3 scripts/src_lines.py            # the src/ of this checkout
    python3 scripts/src_lines.py path/to/src

Comment markers inside string and character literals are kept as code,
so a "//" in a string does not end the line.
"""

import os
import sys


def strip_comments(text):
    """Return `text` with C/C++ comments removed. Newlines inside block
    comments are kept, so line structure survives."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def count_lines(path):
    with open(path, encoding="utf-8") as f:
        code = strip_comments(f.read())
    return sum(1 for line in code.splitlines() if line.strip())


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src")
    root = os.path.normpath(root)
    counts = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith((".cc", ".hh")):
                path = os.path.join(dirpath, name)
                counts.append((os.path.relpath(path, os.path.dirname(root)),
                               count_lines(path)))
    for rel, lines in sorted(counts):
        print(f"{lines:6d}  {rel}")
    print(f"{sum(lines for _, lines in counts):6d}  total")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head`): stop quietly,
        # and point stdout at devnull so the exit-time flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
