#!/usr/bin/env bash
# loc.sh — the size ledger's three numbers, counted as every PR since 12
# has counted them: lines of non-test Go outside benchmark/ (the number
# ROADMAP aim 2 tracks), of test Go outside benchmark/, and of all Go in
# benchmark/ (its own module). Then the non-test Go lines of each package
# under internal/ and cmd/, largest first, the per-package sizes ROADMAP's
# "Where we are" quotes.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find . -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }

printf 'non-test Go outside benchmark/: %6d\n' "$(count -not -name '*_test.go' -not -path './benchmark/*')"
printf 'test Go outside benchmark/:     %6d\n' "$(count -name '*_test.go' -not -path './benchmark/*')"
printf 'benchmark/ (all Go):            %6d\n' "$(count -path './benchmark/*')"

echo 'non-test Go per package:'
find ./internal ./cmd -name '*.go' -not -name '*_test.go' -exec dirname {} + | sort -u |
    while read -r dir; do
        printf '%6d  %s\n' "$(count -path "$dir/*" -not -path "$dir/*/*" -not -name '*_test.go')" "${dir#./}"
    done | sort -k1,1nr -k2
