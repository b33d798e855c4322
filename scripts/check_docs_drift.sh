#!/usr/bin/env bash
# Docs-drift gate: the scenario key table (scenario_keys(), which the parser
# dispatches on; willow_cli --keys) and docs/scenario_format.md must list the
# same keys, and the table's samples and the manual's first example must pass
# --check.  Also checks that every local markdown link in README.md and
# docs/*.md resolves, and that the control.phase.* timers willow_cli --metrics
# prints are exactly the timer table's rows in docs/runbook.md.
#
#   scripts/check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links|timers]
set -euo pipefail

CLI="${1:?usage: check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links|timers]}"
ROOT="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
MODE="${3:-all}"

fail=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

compare() {  # compare <a-name> <a-file> <b-name> <b-file>
  local missing
  missing="$(comm -23 "$2" "$4")"
  if [ -n "$missing" ]; then
    echo "DRIFT: names in $1 but not in $3:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    fail=1
  fi
}

# Backticked tokens matching <pattern> in the FIRST column of the table rows
# of <markdown-file> (handles combined rows like `eta1` / `eta2`).
first_column() {  # first_column <markdown-file> <pattern>
  awk -F'|' '/^\|/ { print $2 }' "$1" | { grep -o "\`$2\`" || true; } |
    tr -d '`' | sort -u
}

# --- the key sets -----------------------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "keys" ]; then

"$CLI" --keys | cut -f1 | sort -u > "$tmp/registry"
first_column "$ROOT/docs/scenario_format.md" '[a-z0-9_]*' > "$tmp/docs"

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

# --- controller sub-phase timers --------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "timers" ]; then

# Every control.phase.* timer is registered when the bus is attached, so one
# tick of the default scenario prints them all (count 0 for phases that did
# not run).  Output with no timer at all fails the grep, and so the script.
echo "measure_ticks = 1" > "$tmp/one_tick"
"$CLI" "$tmp/one_tick" --metrics | grep -o 'control\.phase\.[a-z.]*' |
  sort -u > "$tmp/timers_cli"
first_column "$ROOT/docs/runbook.md" 'control\.phase\.[a-z.]*' \
  > "$tmp/timers_docs"
compare "willow_cli --metrics" "$tmp/timers_cli" "docs/runbook.md" \
  "$tmp/timers_docs"
compare "docs/runbook.md" "$tmp/timers_docs" "willow_cli --metrics" \
  "$tmp/timers_cli"
[ "$fail" = 1 ] ||
  echo "controller timers: $(wc -l < "$tmp/timers_cli") in willow_cli and docs, both agree"

fi  # timers

exit "$fail"
