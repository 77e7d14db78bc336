.PHONY: all build test lint absint regex-diff fingerprints models faults serve-smoke bench-smoke observability check bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis over every corpus repository; fails on any
# error-severity diagnostic (warnings are gated separately by the
# corpus-hygiene test's allowlist).
lint:
	dune exec bin/autotype_cli.exe -- lint --strict

# Abstract-interpretation smoke (DESIGN.md §13): the reference regex
# detector must be proven pure, step-bounded and summarizable, and the
# proofs must surface through the machine-readable lint output.
ABSINT_OUT ?= _build/absint_smoke.json
absint: build
	dune exec bin/autotype_cli.exe -- lint --repo snippets/ipv4-check --json --verbose > $(ABSINT_OUT)
	@grep -q '"pure":true' $(ABSINT_OUT) || { echo "absint: purity proof missing"; exit 1; }
	@grep -q '"step_bound":"steps <=' $(ABSINT_OUT) || { echo "absint: step bound missing"; exit 1; }
	@grep -q '"tree_nodes":' $(ABSINT_OUT) || { echo "absint: summary missing"; exit 1; }
	@echo "absint: OK"

# Regexlite against CPython's `re` (DESIGN.md §14): 40,000 seeded
# (pattern, input) pairs over a/b with every quantifier over every body;
# compares the match end, fullmatch and search span, prints the pairs it
# leaves out (CPython over 0.2 s, library answer fuel-sensitive) and
# fails on any other disagreement.  Needs python3, so it runs here and
# not in `dune runtest`.
regex-diff: build
	python3 test/regex_diff/regex_diff.py _build/default/test/regex_diff/regex_diff.exe

# Golden synthesis fingerprints: synthesize every covered type with the
# default config and seeded positives, and diff one MD5 per type (the
# strategy, the negatives, and every ranked key, DNF and exact score)
# against the committed test/fingerprints/expected.txt.  Catches any
# ranking change that two routes of the same build would share.
# FINGERPRINT_JOBS=2 runs the tracing on two domains; the output must
# not change.
FINGERPRINT_JOBS ?= 1
FINGERPRINT_OUT ?= _build/fingerprints.txt
fingerprints: build
	./_build/default/test/fingerprints/fingerprints.exe --jobs $(FINGERPRINT_JOBS) > $(FINGERPRINT_OUT)
	diff -u test/fingerprints/expected.txt $(FINGERPRINT_OUT)
	@echo "fingerprints: OK"

# Rewrite the committed bench artifacts in canonical form: sorted keys,
# floats as exact %.17g (Model.Jsonx), one trailing newline.  Timings
# vary run to run; shape and key order never do.  The pipeline bench is one
# sequential synthesis pass over four types in a fresh process: it
# writes BENCH_pipeline.json (the pass's stage wall times and its
# counters, which are deterministic counts) and BENCH_telemetry.json
# (the pass's metrics snapshot, readable by `autotype stats
# --snapshot`), and fails when the pass leaves over 2% of
# pipeline.synthesize unattributed.  Then the daemon bench writes
# BENCH_serve.json, and the Prometheus exposition rendered from the
# snapshot is linted.
bench: build
	dune exec bench/main.exe -- pipeline
	dune exec bench/main.exe -- serve
	dune exec bin/autotype_cli.exe -- stats --snapshot BENCH_telemetry.json --prom --lint > /dev/null

# Compile/serve smoke: compile example types into a scratch registry,
# then serve a column through `detect --models` with no re-synthesis.
# The ipv4 values must take the compiled tree that loading derives
# (DESIGN.md §13): `serve.fastpath_hits` above zero.
MODELS_DIR ?= _build/models_smoke
models: build
	rm -rf $(MODELS_DIR)
	dune exec bin/autotype_cli.exe -- compile --type credit-card --type ipv4 --out $(MODELS_DIR)
	@printf '192.168.0.1\n10.0.0.7\n255.255.255.0\n8.8.8.8\n172.16.31.4\n' > $(MODELS_DIR)/column.txt
	dune exec bin/autotype_cli.exe -- detect --column $(MODELS_DIR)/column.txt --models $(MODELS_DIR) --stats | tee $(MODELS_DIR)/detect.out
	@grep -q "detected type ipv4" $(MODELS_DIR)/detect.out || { echo "served detection missed ipv4"; exit 1; }
	@awk '$$1 == "serve.fastpath_hits" && $$2 > 0 { hit = 1 } END { exit !hit }' $(MODELS_DIR)/detect.out || { echo "no served value took a compiled tree"; exit 1; }
	@echo "models: OK"

# Fault-injection smoke: serve under injected delays/kills/corruption
# (AUTOTYPE_FAULTS, DESIGN.md §10) and assert graceful degradation —
# batches finish, a per-value deadline reports DEADLINE on the VM route
# (credit-card has no compiled tree), a compiled tree answers under the
# same delay (ipv4), and a corrupted artifact is rejected loudly rather
# than served.
FAULTS_DIR ?= _build/models_faults
faults: build
	rm -rf $(FAULTS_DIR)
	dune exec bin/autotype_cli.exe -- compile --type ipv4 --type credit-card --out $(FAULTS_DIR)
	@printf '192.168.0.1\n10.0.0.7\n255.255.255.0\n8.8.8.8\n172.16.31.4\n' > $(FAULTS_DIR)/column.txt
	AUTOTYPE_FAULTS="delay_ms=2,p_kill=0.3,seed=7" dune exec bin/autotype_cli.exe -- detect --column $(FAULTS_DIR)/column.txt --models $(FAULTS_DIR) --deadline-ms 500 --value-budget-ms 1 --stats
	AUTOTYPE_FAULTS="delay_ms=5,seed=7" dune exec bin/autotype_cli.exe -- validate --model $(FAULTS_DIR)/credit-card.model --value-budget-ms 1 4532015112830366 | grep -q DEADLINE
	AUTOTYPE_FAULTS="delay_ms=5,seed=7" dune exec bin/autotype_cli.exe -- validate --model $(FAULTS_DIR)/ipv4.model --value-budget-ms 1 192.168.0.1 | grep -q ' VALID$$'
	@AUTOTYPE_FAULTS="p_corrupt=1,seed=7" dune exec bin/autotype_cli.exe -- validate --model $(FAULTS_DIR)/ipv4.model 192.168.0.1 && { echo "corrupted artifact was served"; exit 1; } || true
	@echo "faults: OK"

# Daemon smoke (DESIGN.md §15): compile a model, run `autotype serve`
# over stdio, and push three framed requests plus one malformed frame
# through the wire protocol.  Asserts the bad frame is surfaced (not
# fatal), health and shutdown round-trip, and — the real contract —
# the daemon's verdict words are byte-identical to the one-shot
# `validate` CLI on the same values.
SERVE_DIR ?= _build/serve_smoke
serve-smoke: build
	@rm -rf $(SERVE_DIR)
	dune exec bin/autotype_cli.exe -- compile --type ipv4 --out $(SERVE_DIR)
	@req1='{"id":1,"op":"validate","type":"ipv4","values":["192.168.0.1","notanip"]}'; \
	req2='{"id":2,"op":"health"}'; \
	req3='{"id":3,"op":"shutdown"}'; \
	{ printf '%s\n%s\n' "$${#req1}" "$$req1"; \
	  printf 'XX\n'; \
	  printf '%s\n%s\n' "$${#req2}" "$$req2"; \
	  printf '%s\n%s\n' "$${#req3}" "$$req3"; } > $(SERVE_DIR)/frames.bin
	dune exec bin/autotype_cli.exe -- serve --models $(SERVE_DIR) --stdio \
	  < $(SERVE_DIR)/frames.bin > $(SERVE_DIR)/replies.bin
	@grep -q '"error":"bad_frame"' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: malformed frame not surfaced"; exit 1; }
	@grep -q '"id":2,"ok":true' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: health reply missing"; exit 1; }
	@grep -q '"bye":true' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: shutdown not acknowledged"; exit 1; }
	dune exec bin/autotype_cli.exe -- validate --model $(SERVE_DIR)/ipv4.model \
	  192.168.0.1 notanip > $(SERVE_DIR)/oneshot.out
	@exp=$$(awk 'NF==2 && ($$2=="VALID" || $$2=="invalid" || $$2=="DEADLINE") \
	               {printf("%s\"%s\"", (n++?",":""), $$2)}' $(SERVE_DIR)/oneshot.out); \
	grep -q "\"verdicts\":\[$$exp\]" $(SERVE_DIR)/replies.bin \
	  || { echo "serve-smoke: daemon verdicts drifted from the one-shot CLI"; exit 1; }
	@echo "serve-smoke: OK"

# Benchmark smoke (autobench/README.md): every workload at tiny counts.
# Among its gates, daemon replies must stay byte-identical to the
# benchmark's in-process replay through Detect.serve_detector and
# Detect.serve_column.
bench-smoke: build
	python3 autobench/test/smoke.py

# The observability paths: CLI --stats, the pipeline bench's one
# synthesis pass (rewrites BENCH_pipeline.json with its stage wall
# times and counters, and BENCH_telemetry.json with its metrics
# snapshot; fails over 2% unattributed synthesis time), the
# Prometheus exposition rendered from that snapshot, linted for
# malformed names, missing or duplicate HELP/TYPE, non-contiguous
# families and bad values, and a read-back: the snapshot JSON that
# `stats --json` prints must read back to the same bytes.
observability: build
	dune exec bin/autotype_cli.exe -- synth --type credit-card --stats
	dune exec bench/main.exe -- pipeline
	@test -s BENCH_pipeline.json || { echo "BENCH_pipeline.json missing or empty"; exit 1; }
	@test -s BENCH_telemetry.json || { echo "BENCH_telemetry.json missing or empty"; exit 1; }
	dune exec bin/autotype_cli.exe -- stats --snapshot BENCH_telemetry.json --prom --lint > /dev/null
	dune exec bin/autotype_cli.exe -- stats --snapshot BENCH_telemetry.json --json > _build/stats_readback.json
	dune exec bin/autotype_cli.exe -- stats --snapshot _build/stats_readback.json --json | cmp - _build/stats_readback.json

# Full gate: build, test suites (the VM's parity with the tree-walking
# reference evaluator and the fuzzers run there, DESIGN.md §14), the
# CPython regex differential, the golden synthesis fingerprints, the
# compile/serve smoke, the fault-injection smoke, the daemon smoke, the
# benchmark smoke, and the observability paths (the pipeline bench's
# one pass and the exposition lint).  CI runs each of these targets
# once, as its own step, and the fingerprints a second time on two
# domains.
check: build test lint absint regex-diff fingerprints models faults serve-smoke bench-smoke observability
	@echo "check: OK"

clean:
	dune clean
	rm -rf _build/models_smoke
