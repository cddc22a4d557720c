#!/bin/sh
# nofma.sh — fail if the compiler fused a multiply and an add in any
# function of this module.
#
# The Go spec lets a compiler fuse x*y + z into one fused multiply-add
# (rounded once instead of twice) on arm64, ppc64le, riscv64, loong64 and
# s390x; amd64 never fuses. A fused product changes the last bit of a
# result, so θ̂, aest's fit and the synthetic traffic would differ from
# one host to the next and the goldens would only hold on amd64. An
# explicit float64(x*y) conversion forbids the fusion: this script
# cross-builds every command and example for each fusing architecture
# and lists every fused instruction `go tool objdump` finds inside a
# repro/ function. It exits 1 if there is any.
#
# Usage: scripts/nofma.sh [arch...]   (default: arm64 ppc64le riscv64 loong64)
#
# Needs only the Go toolchain: cross-compiling pure Go needs no C
# toolchain and nothing is run on the target.

set -eu

cd "$(dirname "$0")/.."
arches=${*:-"arm64 ppc64le riscv64 loong64"}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

found=0
for arch in $arches; do
	for pkg in ./cmd/* ./examples/*; do
		bin="$out/$arch-$(basename "$pkg")"
		CGO_ENABLED=0 GOOS=linux GOARCH=$arch go build -o "$bin" "$pkg"
		# objdump prints a "TEXT symbol(SB) file" line per function and
		# one line per instruction, the mnemonic after the encoding.
		go tool objdump "$bin" | awk -v arch="$arch" -v bin="$(basename "$pkg")" '
			/^TEXT / { fn = $2; mine = (fn ~ /^repro\//); next }
			mine && $4 ~ /^F(N)?M(ADD|SUB)/ { print arch, bin, fn, $1, $4; n++ }
			END { exit n > 0 }
		' || found=1
	done
done
if [ "$found" -ne 0 ]; then
	echo "nofma: fused multiply-add in repro/ code (above); put float64(...) around the product" >&2
	exit 1
fi
echo "nofma: no fused multiply-add in repro/ code on $arches"
