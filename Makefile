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

# smoke runs the benchmark's three serving workloads briefly: each
# boots calmd in process (a single node, then a 4-shard cluster behind
# the router), drives it over loopback TCP and checks every answer
# against an oracle, and exits non-zero on a wrong or failed answer.
smoke:
	$(GO) run ./bench -workload serve-read -seconds 0.5
	$(GO) run ./bench -workload serve-write -seconds 0.5
	$(GO) run ./bench -workload cluster-gather -seconds 0.5

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
# it is deliberately the same gate as `make check` plus the serving
# and admin-endpoint smoke stages.
ci: check smoke admin-smoke
