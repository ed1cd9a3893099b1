#!/usr/bin/env bash
# Link check: every function declared in a non-test file under internal/
# must be linked into some binary — a command, an example or the bench
# tool — or be named, with a reason, in scripts/linkcheck.allow.
#
# Method: build every main package with inlining off (so a function that
# is called is a symbol), list the pvmigrate/internal/… text symbols with
# `go tool nm`, and compare them with the `func` declarations of the
# non-test files. chaos, sweep and lint/linttest are skipped: their runner
# is `go test`. Linker reachability over-approximates (a method kept for
# an interface counts as linked), so this can miss dead code but never
# calls live code dead.
#
# Fails on an unlinked function the allowlist does not name, and on an
# allowlist entry that is linked, names no declaration or has no reason.
#
# Usage: bash scripts/linkcheck.sh   (about 30 s on a cold build cache)
set -euo pipefail

cd "$(dirname "$0")/.."
ALLOW=scripts/linkcheck.allow
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/bin"
go build -gcflags=all=-l -o "$WORK/bin/" ./cmd/... ./examples/... ./bench

# Linked: one normalised name per line, pkg.Func or pkg.Type.Method.
# Keep the whole symbol after its type letter (generic shape names contain
# spaces), drop instantiation brackets innermost first, then closure and
# method-value suffixes, and read (*T).M as T.M.
for bin in "$WORK"/bin/*; do
  go tool nm "$bin"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] (pvmigrate\/internal\/.*)$/\1/p' |
  sed -E ':b; s/\[[^][]*\]//; tb' |
  sed -E 's/^pvmigrate\/internal\///; s/\.(func|gowrap|deferwrap)[0-9].*$//; s/-fm$//; s/\(\*?([A-Za-z0-9_]+)\)/\1/' |
  sort -u >"$WORK/linked"

# Declared: file:line name, for every top-level func of a non-test file
# (init functions are never called by name and are skipped).
find internal -name '*.go' ! -name '*_test.go' \
  ! -path 'internal/chaos/*' ! -path 'internal/sweep/*' \
  ! -path 'internal/lint/linttest/*' ! -path '*/testdata/*' | sort |
  xargs awk '
    FNR == 1 { pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg) }
    /^func / {
      s = substr($0, 6); recv = ""
      if (s ~ /^\(/) {
        r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
        sub(/\[.*/, "", r); sub(/.*[ *]/, "", r); recv = r "."
      }
      match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
      if (recv != "" || name != "init") print FILENAME ":" FNR " " pkg "." recv name
    }' | sort -k2 >"$WORK/declared"

# Allowlist: "name reason…"; blank lines and # comments are skipped.
{ grep -vE '^[[:space:]]*(#|$)' "$ALLOW" || true; } | sort -k1,1 >"$WORK/allow"

fail=0
awk 'NF < 2 { print "  " $1 }' "$WORK/allow" >"$WORK/noreason"
cut -d' ' -f1 "$WORK/allow" | sort -u >"$WORK/allowed"
cut -d' ' -f2 "$WORK/declared" | sort -u >"$WORK/names"

comm -23 "$WORK/names" "$WORK/linked" | comm -23 - "$WORK/allowed" >"$WORK/dead"
if [ -s "$WORK/dead" ]; then
  echo "linkcheck: declared in internal/ but linked into no binary (delete it, move it into a _test.go file, or allowlist it with a reason in $ALLOW):"
  awk 'NR == FNR { dead[$1] = 1; next } dead[$2] { print "  " $1 " " $2 }' "$WORK/dead" "$WORK/declared"
  fail=1
fi
comm -12 "$WORK/allowed" "$WORK/linked" >"$WORK/stale"
comm -23 "$WORK/allowed" "$WORK/names" >>"$WORK/stale"
if [ -s "$WORK/stale" ]; then
  echo "linkcheck: $ALLOW entries that are linked or name no declaration (remove them):"
  sed 's/^/  /' "$WORK/stale"
  fail=1
fi
if [ -s "$WORK/noreason" ]; then
  echo "linkcheck: $ALLOW entries without a reason:"
  cat "$WORK/noreason"
  fail=1
fi
[ "$fail" = 0 ] && echo "linkcheck: ok ($(wc -l <"$WORK/names") functions, $(wc -l <"$WORK/allowed") allowlisted)"
exit "$fail"
