#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 test suite: configures the tier-1
# tree with `-O0 --coverage` into build-coverage/, builds it, runs ctest,
# then runs gcov over every object of the build and prints, per src/ file,
# the executable lines that no test ran.  A line counts as run when any
# object that compiles it ran it, so a src/ header's inline code is judged
# across every translation unit that includes it, tests included.
#
#   scripts/coverage.sh [jobs]
#
# Exits non-zero only when the build or ctest fails; never-run lines are a
# report, not a gate.  Counts from an earlier run are deleted first.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-coverage"
JOBS="${1:-$(nproc)}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 --coverage" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build "$BUILD" -j"$JOBS"
find "$BUILD" -name '*.gcda' -delete
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

python3 - "$ROOT" "$BUILD" <<'EOF'
import json
import os
import subprocess
import sys

root, build = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
counts = {}  # source path -> {line: max count over objects}
for dirpath, _, files in os.walk(build):
    for name in sorted(files):
        if not name.endswith(".gcno"):
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", dirpath,
             os.path.join(dirpath, name)],
            cwd=build, check=True, capture_output=True, text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            for f in json.loads(doc)["files"]:
                path = os.path.normpath(os.path.join(build, f["file"]))
                if not path.startswith(src):
                    continue
                lines = counts.setdefault(path, {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[n] = max(lines.get(n, 0), ln["count"])


def ranges(nums):
    out, start, prev = [], None, None
    for n in nums:
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = prev = n
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ", ".join(out)


total = run = 0
for path in sorted(counts):
    lines = counts[path]
    never = sorted(n for n, c in lines.items() if c == 0)
    total += len(lines)
    run += len(lines) - len(never)
    if never:
        print(f"{os.path.relpath(path, root)}: {len(never)} never run: "
              f"{ranges(never)}")
pct = 100.0 * run / total if total else 100.0
print(f"src/: {run} of {total} executable lines run ({pct:.1f}%)")
EOF
