#!/bin/sh
# sweep_identical.sh — prove that the working tree simulates exactly what a
# base revision does: build cmd/bearbench at BASE (in a temporary git
# worktree) and from this checkout, run the full `bearbench -run all -quick`
# sweep with each, and byte-compare the artifacts. Timing lines
# ("[tab4 done in ...]") legitimately differ run to run and are dropped, as
# ci.sh's resume round-trip does.
#
#   make sweep-identical BASE=HEAD~1
#   scripts/sweep_identical.sh HEAD~1
#
# The two sweeps take a few minutes together, so this is not part of ci.sh;
# run it for any change that claims the simulated numbers did not move.
# Exits 0 when the outputs are byte-identical and 1 with a diff when not.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base=$1

cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	git worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git worktree add --detach "$tmp/base" "$rev" >/dev/null 2>&1
(cd "$tmp/base" && go build -o "$tmp/bearbench.base" ./cmd/bearbench)
go build -o "$tmp/bearbench.head" ./cmd/bearbench

for side in base head; do
	echo "sweep_identical: running $side sweep" >&2
	"$tmp/bearbench.$side" -run all -quick | grep -v '^\[' >"$tmp/$side.out"
done

if cmp -s "$tmp/base.out" "$tmp/head.out"; then
	echo "sweep_identical: byte-identical to $base ($rev), $(wc -l <"$tmp/head.out") lines"
	exit 0
fi
echo "sweep_identical: output differs from $base ($rev)" >&2
diff "$tmp/base.out" "$tmp/head.out" >&2 || true
exit 1
