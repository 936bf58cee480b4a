#!/usr/bin/env bash
# Runs every test named in gated-tests.txt beside this script with
# `--exact`, one `cargo test` per package and target in order of first
# appearance, and fails unless each listed name reports `ok`.  Libtest
# prints nothing for a name that matches no test, so a missing, renamed
# or filtered-away test fails here like a failing one.
set -euo pipefail

list="$(dirname "$0")/gated-tests.txt"
entries="$(grep -Ev '^[[:space:]]*(#|$)' "$list")"
logs="$(mktemp -d)"
trap 'rm -rf "$logs"' EXIT
status=0

while read -r pkg target; do
  case "$target" in
    lib) selector=(--lib) ;;
    test:*) selector=(--test "${target#test:}") ;;
    *) echo "gated-tests: unknown target '$target' for $pkg" >&2; exit 2 ;;
  esac
  names="$(awk -v p="$pkg" -v t="$target" '$1 == p && $2 == t { print $3 }' <<<"$entries")"
  log="$logs/$pkg.${target//[:\/]/_}.log"
  # shellcheck disable=SC2086 # one argument per test name
  cargo test -p "$pkg" "${selector[@]}" -- --exact $names | tee "$log" || status=1
  while read -r name; do
    if ! grep -qxF "test $name ... ok" "$log"; then
      echo "gated-tests: $pkg $target $name did not report ok" >&2
      status=1
    fi
  done <<<"$names"
done < <(awk '!seen[$1 " " $2]++ { print $1, $2 }' <<<"$entries")

if [ "$status" -eq 0 ]; then
  echo "gated-tests: all $(wc -l <<<"$entries") listed tests reported ok"
fi
exit "$status"
