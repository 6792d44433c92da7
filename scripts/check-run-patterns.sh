#!/usr/bin/env bash
# check-run-patterns.sh fails when a `go test -run` selection in the Makefile
# or .github/workflows/ci.yml has an alternative that names no test, so a
# renamed or moved test cannot silently drop out of a CI step.
#
# For every `go test` invocation with -run it lists the tests, benchmarks,
# fuzz targets and examples of that invocation's packages (`go test -list`)
# and checks each top-level `|` alternative of the pattern against them.
# The empty selection '^$' (benchmark-only runs) is skipped.
#
# Usage: bash scripts/check-run-patterns.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

# invocations prints one `go test` command per line: Makefile recipes with
# continuations joined and make's $(GO) and $$ expanded, then ci.yml run: steps.
invocations() {
	sed -e ':a' -e '/\\$/N; s/\\\n//; ta' Makefile |
		grep -E '\$\(GO\) test .*-run' |
		sed -e 's/\$(GO)/go/' -e 's/\$\$/$/g' -e 's/^[[:space:]]*//'
	grep -E '^[[:space:]]*run: go test .*-run' .github/workflows/ci.yml |
		sed -e 's/^[[:space:]]*run: //'
}

declare -A listed # package list -> names go test -list printed for it
failures=0
checked=0
while IFS= read -r cmd; do
	read -r -a words <<<"$cmd"
	pattern="" pkgs=()
	for ((k = 0; k < ${#words[@]}; k++)); do
		word=${words[k]}
		case $word in
		-run) pattern=${words[k + 1]//\'/} ;;
		-run=*) pattern=${word#-run=} pattern=${pattern//\'/} ;;
		./* | .) pkgs+=("$word") ;;
		esac
	done
	if [[ -z $pattern || $pattern == '^$' ]]; then
		continue
	fi
	key="${pkgs[*]}"
	if [[ -z ${listed[$key]+set} ]]; then
		if ! out=$(go test -list '.*' "${pkgs[@]}" 2>&1); then
			echo "$out"
			echo "go test -list failed for ${pkgs[*]}"
			exit 1
		fi
		listed[$key]=$(grep -Ev '^(ok|\?)[[:space:]]' <<<"$out" || true)
	fi
	IFS='|' read -r -a alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"${listed[$key]}"; then
			echo "no test in ${pkgs[*]} matches '$alt' (from -run '$pattern')"
			failures=$((failures + 1))
		fi
	done
done < <(invocations)

echo "$checked -run alternatives checked, $failures match nothing"
[[ $failures -eq 0 ]]
