# Standard targets; `make ci` is what a PR must pass.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke bench-snapshot bench-compare sweep-identical profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The parallel experiment
# Runner is exercised by internal/exp's determinism and singleflight tests,
# so this catches races in the sweep engine, not just in library code.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs simlint, the repository's own static analyzer: determinism
# (wall clock / math/rand / os.Getenv / map-order folds / stray goroutines),
# //bear:hotpath alloc-freedom, pool discipline, engine contracts, byte
# attribution, event-time monotonicity and the stats census. See
# ARCHITECTURE.md "Enforced invariants" for the rule catalogue. -cache keys
# the result on a hash of every non-test .go file (.simlint.cache), so a
# clean re-run replays without re-type-checking the module.
lint:
	$(GO) run ./cmd/simlint -cache ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-smoke compiles and runs every benchmark once (no timing fidelity);
# it guards against benchmark bit-rot without slowing CI down.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-snapshot records a timed run into the next free BENCH_<n>.json
# (see README "Performance").
bench-snapshot:
	scripts/bench.sh

# bench-compare diffs the two newest BENCH_<n>.json snapshots (ns/instr and
# allocs/instr per benchmark); it exits non-zero on a >5% ns/instr
# regression.
bench-compare:
	scripts/bench_compare.sh

# sweep-identical byte-compares the full `bearbench -run all -quick` sweep of
# the working tree against revision BASE (built in a temporary git worktree);
# it takes minutes, so it is not part of ci.
sweep-identical:
	scripts/sweep_identical.sh $(BASE)

# profile captures a CPU profile of one full simulation run (default
# Alloy/mcf; override with DESIGN=/WORKLOAD=) and renders the top-20 hottest
# functions into profiles/cpu_<design>_<workload>.txt.
profile:
	scripts/profile.sh

ci: vet lint build race bench-smoke
