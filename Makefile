# Developer entry points. `make check` is the tier-1 gate; `make race`
# reruns everything under the race detector. Stress/linearizability tests
# honour -short (subsampled matrix); `make stress` sweeps the full matrix
# including the unsafefree must-fail controls.

GO ?= go

.PHONY: check race test short stress bench bench-json bench-compare bench-stall vet serve-smoke bench-kvsvc bench-conns

check: vet
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -count=1 -run \
		'ZeroValue|FrontierCache|StatsMonotone|ScanSet|ReleaseHint|Adaptive|Budget|Neutraliz|CheckpointProtects' \
		./internal/hazards/ ./internal/hp/ ./internal/core/ ./internal/ebr/ \
		./internal/pebr/ ./internal/nbr/ ./internal/arena/ ./internal/smr/
	$(GO) test -race -count=1 ./internal/netpoll/
	$(GO) test -race -count=1 -run 'Netpoll|FrameReader|Order|Evict|Churn|ReadFrame' ./internal/kvsvc/
	$(GO) test -race -count=1 -run 'Scot|SCOT' \
		./internal/hp/ ./internal/ds/hhslist/ ./internal/ds/hmlist/ ./internal/ds/somap/

vet:
	$(GO) vet ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -count=1 ./...

stress:
	$(GO) run ./cmd/stress -unsafe

# serve-smoke boots gosmrd (hp++, detect mode), fires a kvload burst at
# it, and asserts a clean SIGTERM drain with zero arena violations. The
# report lands in results/BENCH_kvsvc.json (gitignored).
serve-smoke:
	bash scripts/serve_smoke.sh

# bench-kvsvc regenerates BENCH_kvsvc.json at the repo root: the
# (engine × read-fastpath) service-layer matrix under a 1M-key preload,
# detect mode throughout.
bench-kvsvc:
	bash scripts/bench_kvsvc.sh

# bench-conns regenerates BENCH_conns.json at the repo root: the
# idle-fleet capacity artifact — a netpoll cell with an fd-limit-scaled
# mostly-idle fleet (min(100000, ulimit-5000)) plus a goroutine-baseline
# cell, validated by benchcompare -conns (bounded bytes-per-conn,
# conn-independent goroutines, flat handle census, hot p99 band).
bench-conns:
	bash scripts/bench_conns.sh

bench:
	$(GO) test -run=NONE -bench=. -benchtime=200ms ./internal/bench/

# bench-stall regenerates BENCH_stall.json at the repo root — the §4.4
# stalled-thread robustness artifact (per-scheme peak/final unreclaimed
# with a writer parked mid-insert, plus the unstalled read-heavy
# throughput companion) — and validates it with benchcompare -stall.
bench-stall:
	bash scripts/bench_stall.sh

# bench-json regenerates BENCH_reclaim.json at the repo root: the pinned
# reclaim-scan microbench plus one fig-8 read-write cell per scheme.
bench-json:
	$(GO) run ./cmd/smrbench -reclaimjson BENCH_reclaim.json -dur 2s

# bench-compare runs a fresh reclaim report into results/ (gitignored) and
# diffs it against the committed BENCH_reclaim.json. Fails if the pinned
# scan microbench regresses more than 5%; throughput cells warn at 25%.
bench-compare:
	mkdir -p results
	$(GO) run ./cmd/smrbench -reclaimjson results/BENCH_reclaim.fresh.json -dur 2s
	$(GO) run ./cmd/benchcompare -base BENCH_reclaim.json \
		-fresh results/BENCH_reclaim.fresh.json -tolerance 0.05
