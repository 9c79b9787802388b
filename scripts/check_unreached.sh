#!/usr/bin/env bash
# check_unreached.sh — fails when a function compiled into a package under
# internal/ is reached by none of the five binaries (tafpga, taexp, tafpgad,
# tachar, tabench) and is not listed in scripts/unreached.allow. It also
# fails on an allowlist line whose symbol is now reached or gone, so the
# list only ever names code that still needs its reason.
#
# "Reached" is every function symbol the linker kept in a binary; "defined"
# is every function symbol in the packages' compiled objects. Both sides are
# built with inlining off, so a call that would be inlined still counts.
# Closures, defer wrappers, generic instantiations and pointer-receiver
# wrappers fold into the function they belong to; package initializers and
# interface method wrappers are dropped.
#
#   bash scripts/check_unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
flags=-gcflags=all=-l

go build "$flags" -o "$work/" ./cmd/tafpga ./cmd/taexp ./cmd/tafpgad ./cmd/tachar
go -C tabench build "$flags" -o "$work/tabench" .

# norm prints one "pkg.Func" or "pkg.Type.Method" per source function.
norm() {
	sed -E 's#^tafpga/internal/##; s/\[.*\]//; s/\(\*([^)]*)\)/\1/; s/(\.(func|deferwrap)[0-9]+)+(\.[0-9]+)*$//' |
		grep -Ev '\.init(\.[0-9]+)?$' | sort -u
}
grep -rE --include='*.go' '^type [A-Za-z0-9_]+ interface' internal |
	sed -E 's#^internal/(.*)/[^/]*:type ([A-Za-z0-9_]+) .*#\1.\2.#' >"$work/ifaces"

for b in tafpga taexp tafpgad tachar tabench; do go tool nm "$work/$b"; done |
	awk '($2 == "T" || $2 == "t") && $3 ~ /^tafpga\/internal\// { print $3 }' | norm >"$work/reached"
go list -export "$flags" -f '{{.Export}}' ./internal/... | xargs -n 1 go tool nm |
	awk '$2 == "T" && $3 ~ /^tafpga\/internal\// { print $3 }' | norm |
	{ grep -vF -f "$work/ifaces" || true; } >"$work/defined"
sed -E 's/#.*//; /^[[:space:]]*$/d; s/[[:space:]].*//' scripts/unreached.allow | sort -u >"$work/allow"

comm -23 "$work/defined" "$work/reached" >"$work/unreached"
status=0
if comm -23 "$work/unreached" "$work/allow" | grep .; then
	echo "check_unreached: the functions above are reached by no binary; delete them or list them with a reason in scripts/unreached.allow" >&2
	status=1
fi
if comm -13 "$work/unreached" "$work/allow" | grep .; then
	echo "check_unreached: the allowlist lines above name a function that is reached or gone; delete those lines" >&2
	status=1
fi
exit $status
