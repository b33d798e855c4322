#!/usr/bin/env bash
# Docs-drift gate: the scenario key table (scenario_keys(), which the parser
# dispatches on; willow_cli --keys) and docs/scenario_format.md must list the
# same keys, and the table's samples and the manual's first example must pass
# --check.  Also checks that every local markdown link in README.md and
# docs/*.md resolves.
#
#   scripts/check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links]
set -euo pipefail

CLI="${1:?usage: check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links]}"
ROOT="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
MODE="${3:-all}"

fail=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# --- the key sets -----------------------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "keys" ]; then

"$CLI" --keys | cut -f1 | sort -u > "$tmp/registry"

# Every backticked token in the FIRST column of a table row in
# docs/scenario_format.md (handles combined rows like `eta1` / `eta2`).
awk -F'|' '/^\|/ { print $2 }' "$ROOT/docs/scenario_format.md" |
  grep -o '`[a-z0-9_]*`' | tr -d '`' | sort -u > "$tmp/docs"

compare() {  # compare <a-name> <a-file> <b-name> <b-file>
  local missing
  missing="$(comm -23 "$2" "$4")"
  if [ -n "$missing" ]; then
    echo "DRIFT: keys in $1 but not in $3:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    fail=1
  fi
}

compare "registry" "$tmp/registry" "docs"     "$tmp/docs"
compare "docs"     "$tmp/docs"     "registry" "$tmp/registry"

n="$(wc -l < "$tmp/registry")"
[ "$fail" = 1 ] || echo "scenario keys: $n in registry and docs, both agree"

# The registry's samples must form a valid scenario when concatenated (this
# is what makes --keys trustworthy as documentation), and so must the
# manual's first example.
"$CLI" --keys | awk -F'\t' '{ print $1 " = " $2 }' > "$tmp/registry_samples"
awk '/^```/ { n++; next } n == 1' "$ROOT/docs/scenario_format.md" \
  > "$tmp/scenario_format_example"
for scn in registry_samples scenario_format_example; do
  if ! "$CLI" --check "$tmp/$scn" > /dev/null; then
    echo "DRIFT: $scn fails --check" >&2
    fail=1
  fi
done

fi  # keys

# --- markdown local links ---------------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "links" ]; then

check_links() {  # check_links <markdown-file>
  local md="$1" dir target
  dir="$(dirname "$md")"
  # [text](target) — skip external links and pure anchors.  The greps exit
  # non-zero on a file with no local links; that is not an error.
  { grep -o '](\([^)]*\))' "$md" || true; } | sed 's/^](\(.*\))$/\1/' |
    { grep -v -e '^https\?://' -e '^mailto:' -e '^#' || true; } |
    sed 's/#.*$//' | sort -u |
  while read -r target; do
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "DEAD LINK: $md -> $target" >&2
      echo bad >> "$tmp/badlinks"
    fi
  done
}

for md in "$ROOT/README.md" "$ROOT"/docs/*.md; do
  check_links "$md"
done
if [ -s "$tmp/badlinks" ]; then
  fail=1
else
  echo "markdown links: ok"
fi

fi  # links

exit "$fail"
