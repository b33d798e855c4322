#!/usr/bin/env python3
"""Fail when a C++ function definition runs past a line budget.

    scripts/check_function_size.py <max-lines> <file>...

A definition starts at a column-0 line (not a comment, preprocessor line,
namespace, using-declaration or closing brace) whose declaration reaches a
'{' before a ';', and ends at the next line that starts with '}'.  Its
length counts both ends, signature included.  This matches the repository's
clang-format layout, where only namespace-scope code sits at column 0.
Exits 1 and lists every definition over the budget, largest first; exits 2
with this usage when the arguments are missing or the budget is not a
non-negative integer.
"""
import sys

SKIP_PREFIXES = ("#", "//", "/*", "*", "}", "namespace", "using ")


def starts_definition(line):
    return bool(line) and not line[0].isspace() and not line.startswith(
        SKIP_PREFIXES)


def code_of(line):
    return line.split("//", 1)[0]


def definitions(lines):
    """Yield (first line number, length, signature) per definition."""
    i = 0
    while i < len(lines):
        if not starts_definition(lines[i]):
            i += 1
            continue
        # Walk the declaration to its '{' (a body) or ';' (no body).
        j = i
        while j < len(lines):
            code = code_of(lines[j])
            if "{" in code or code.rstrip().endswith(";"):
                break
            j += 1
        if j == len(lines) or "{" not in code_of(lines[j]):
            i = j + 1
            continue
        body_open = code_of(lines[j])
        if body_open.count("{") <= body_open.count("}"):
            end = j  # one-line body
        else:
            end = j + 1
            while end < len(lines) and not lines[end].startswith("}"):
                end += 1
        yield i + 1, end - i + 1, lines[i].strip()
        i = end + 1


def main(argv):
    if len(argv) < 3 or not argv[1].isdecimal():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    limit = int(argv[1])
    over = []
    for path in argv[2:]:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for first, length, signature in definitions(lines):
            if length > limit:
                over.append((length, path, first, signature))
    for length, path, first, signature in sorted(over, reverse=True):
        print(f"{path}:{first}: {length} lines (limit {limit}): {signature}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
