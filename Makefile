# Convenience targets; `make check` is the gate new changes must pass.

GO ?= go

.PHONY: build test race vet check smoke admin-smoke trace-demo ci cover

cover:
	$(GO) test -cover ./internal/transducer/ ./internal/core/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check:
	sh scripts/check.sh

# smoke boots an in-process calmd, drives it with the seeded load
# generator over real TCP (serial baseline + pipelined run), and fails
# unless both runs complete with nonzero throughput and zero protocol
# errors. The second leg drives the same session loop pipelined through
# the cluster router, so both of its backends run over TCP in CI.
smoke:
	$(GO) run ./cmd/calmload -smoke -compare -duration 500ms -read-frac 0.98
	$(GO) run ./cmd/calmload -smoke -self-shards 2 -via-router -window 32 -duration 500ms

# admin-smoke boots a sharded calmd with -admin, drives traffic, and
# asserts /metrics exposes every srv_*/cluster_*/coord_* family,
# /healthz reports per-shard watermarks and epoch age, and /trace
# returns spans (scripts/admin_smoke.sh).
admin-smoke:
	sh scripts/admin_smoke.sh

# trace-demo is a quick tour of the tracing plane: boot a sharded
# daemon, push a write/read mix, print the span stream, live health,
# and the coordination budget (scripts/trace_demo.sh).
trace-demo:
	sh scripts/trace_demo.sh

# ci is the entry point GitHub Actions runs (.github/workflows/ci.yml);
# it is deliberately the same gate as `make check` plus the calmload
# and admin-endpoint smoke stages.
ci: check smoke admin-smoke
