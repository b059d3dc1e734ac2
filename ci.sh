#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build, test, and
# lint clean with no network access and no external crates. This is the
# same gate CI runs (.github/workflows/ci.yml); run it locally before
# pushing.
#
# Usage:
#   ./ci.sh          # every lane below, in order
#   ./ci.sh tier1    # fmt --check + build + full test suite + clippy +
#                    # rustdoc (-D warnings: no broken or private
#                    # intra-doc links) + the benchmark package's build
#                    # and its serve-warm, serve-source, serve-cold,
#                    # engine-pic, engine-moldyn and sim-moldyn-p32
#                    # smokes
#   ./ci.sh faults   # fault-injection / recovery sweeps only
#   ./ci.sh workloads # skewed-family golden-oracle sweeps, including
#                    # the strategy auto-selection check on the
#                    # deterministic sim, the native-equals-simulator
#                    # suite, the coefficient-table batch
#                    # body against its scalar reference, and the plan's
#                    # edge column against the kernel's stream through
#                    # prepare, updates, set_kernel and a rolled-back
#                    # update (3 fixed seeds + one randomized pass
#                    # each), and a quick `figs adaptive` run that must
#                    # print its prepared-run table
#   ./ci.sh server   # daemon robustness: frame-decoder fuzz (3 fixed
#                    # seeds + one randomized pass), the chaos-client
#                    # soak, the plan-admission accounting and every
#                    # live error code reached over a socket
#                    # (error_codes) against a live daemon — all under
#                    # the hard timeout (the daemon's contract is "typed
#                    # error, never a hang")
#   ./ci.sh compiler # threadedc front door: the compiled-vs-interpreter
#                    # property suite, including the block evaluator's
#                    # `InterpKernel::contrib_batch` ≡ per-iteration
#                    # `contrib` property (3 fixed seeds + one
#                    # randomized pass), the source-over-the-wire server
#                    # tests (with exact compile-cache accounting), and
#                    # a CLI smoke over the checked-in fixtures
#   ./ci.sh sim      # EARTH backends: the sim ≡ native equivalence and
#                    # sim chaos-replay suite, the ring programs
#                    # (phased and gather) sim ≡ native, also under
#                    # lossless faults, the memsim cache against its
#                    # stamp-LRU reference, the LightInspector against
#                    # its per-iteration reference plus its
#                    # plan-validity properties, and the chunked value
#                    # loop against its per-iteration reference (3 fixed
#                    # seeds + one randomized pass each), then the SPSC
#                    # lane stress and the prepare-pool tests in release,
#                    # under the hard timeout
#
# Every test invocation runs under a hard timeout: a hang anywhere —
# including in the code under test, whose whole contract is "typed error,
# never a hang" — fails the pipeline instead of wedging it.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Hard ceiling per test invocation (seconds). SIGKILL 30 s after the
# polite SIGTERM in case a wedged thread ignores it.
TEST_TIMEOUT="${CI_TEST_TIMEOUT:-900}"

run_tests() {
    timeout -k 30 "$TEST_TIMEOUT" "$@"
}

tier1() {
    echo "== fmt (--check) =="
    cargo fmt --all -- --check

    echo "== build (release) =="
    cargo build --release

    echo "== test =="
    run_tests cargo test -q --workspace

    echo "== clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings

    echo "== rustdoc (-D warnings) =="
    # A doc link to a deleted or private item is a warning, and nothing
    # above builds the docs: deny it here.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    echo "== benchmark package (offline build + warm, source, cold, adaptive, engine, sim smokes) =="
    # benchmark/ is its own workspace with path dependencies on
    # crates/*: a renamed public item passes everything above and
    # breaks only there. `cargo run` builds it, then drives one job
    # stream each through the plan-cache hit path, the source path, the
    # cold prepare path (a never-seen structure per job), the adaptive
    # path (apply_updates re-inspecting a live plan's touched nodes
    # every job), the library's native chunked kernel (engine-moldyn)
    # and the simulator's measuring and replayed sweeps (sim-moldyn-p32)
    # end to end.
    # The quick runs' header says NOT FOR NUMBERS — only the exit code
    # (0 = it built and every checked output was correct: values
    # against the sequential engine, and identical simulated cycles on
    # every repetition) is gated.
    for workload in serve-warm serve-source serve-cold engine-pic engine-moldyn sim-moldyn-p32; do
        run_tests cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --quick --workload "$workload"
    done

    echo "== trace smoke (figs fig5 --trace) =="
    # Keeps the figure binary built and run. The --trace path must emit
    # a phase-timeline table and a Chrome trace_event JSON that passes
    # the hand validator (dump_trace panics on invalid JSON, so a
    # non-empty file implies it parsed). figs writes its outputs under
    # the working directory, so it runs in a scratch one, removed on
    # success and failure alike.
    cargo build --release -q -p repro-bench
    local figs="$PWD/target/release/figs" scratch trace_out
    scratch=$(mktemp -d)
    # `set -e` exits the shell on failure without running RETURN traps,
    # and `scratch` is out of scope by then: expand it now, on EXIT.
    trap "rm -rf '$scratch'" EXIT
    # Capture, then grep: `| grep -q` would close the pipe at first
    # match and SIGPIPE the still-printing binary.
    trace_out=$(cd "$scratch" && REPRO_QUICK=1 run_tests "$figs" fig5 --trace)
    grep -q "phase timeline (fig5)" <<<"$trace_out"
    test -s "$scratch/bench_results/fig5_trace.json"
    rm -rf "$scratch"
    trap - EXIT
}

faults() {
    # Deterministic replay: the same base seed must inject the same
    # faults. Three fixed seeds, then one randomized pass to keep
    # widening coverage over time (its seeds print on failure for
    # replay via PROP_SEED).
    for seed in 1 2 3; do
        echo "== fault injection (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-model --test fault_injection
        PROP_BASE_SEED=$seed run_tests cargo test -q -p irred --test recovery
    done

    echo "== fault injection (randomized pass) =="
    rand_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "   PROP_BASE_SEED=$rand_seed"
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-model --test fault_injection
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p irred --test recovery

    # The watchdog deadline is wall-clock: verify it also holds without
    # debug-build slack.
    echo "== watchdog deadline (release) =="
    run_tests cargo test -q --release -p earth-model --test fault_injection watchdog
}

workloads() {
    # The golden-oracle property suite for the skewed workload families,
    # native and replayed runs against the simulator's measuring run on
    # the same families (tuning_equivalence), the batch body
    # those families and the server's jobs share against its scalar
    # reference (batch_kernels), and the phased plan's per-node edge
    # column — the kernel's stream in schedule order — against the
    # stream and a fresh prepare after prepare, updates, set_kernel and
    # a rolled-back update (edge_column_follows_the_schedule): three
    # fixed base seeds for deterministic replay, then one randomized
    # pass to keep widening coverage (its seed prints on failure for
    # replay via PROP_SEED).
    local column=phased::tests::edge_column_follows_the_schedule
    for seed in 1 2 3; do
        echo "== workload families, tuning equivalence, batch kernels, edge column (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-irred --test workload_families
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-irred --test tuning_equivalence
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-irred --test batch_kernels
        PROP_BASE_SEED=$seed run_tests cargo test -q -p irred --lib "$column"
    done

    echo "== workload families, tuning equivalence, batch kernels, edge column (randomized pass) =="
    rand_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "   PROP_BASE_SEED=$rand_seed"
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-irred --test workload_families
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-irred --test tuning_equivalence
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-irred --test batch_kernels
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p irred --lib "$column"

    echo "== adaptive smoke (figs adaptive, prepared-run churn sweep) =="
    # The churn sweep through PreparedPhased::apply_updates on a
    # particle-in-cell deck, reduced by REPRO_QUICK. figs writes under
    # the working directory, so it runs in a scratch one, removed on
    # success and failure alike (the same pattern as the tier-1 trace
    # smoke).
    cargo build --release -q -p repro-bench
    local figs="$PWD/target/release/figs" scratch adaptive_out
    scratch=$(mktemp -d)
    trap "rm -rf '$scratch'" EXIT
    adaptive_out=$(cd "$scratch" && REPRO_QUICK=1 run_tests "$figs" adaptive)
    grep -q "prepared run: apply_updates" <<<"$adaptive_out"
    rm -rf "$scratch"
    trap - EXIT
}

server() {
    # Frame-decoder fuzz: three fixed base seeds for deterministic
    # replay, then one randomized pass to keep widening coverage (its
    # seed prints on failure for replay via PROP_SEED).
    for seed in 1 2 3; do
        echo "== server decoder fuzz (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p server --test protocol_fuzz
    done

    echo "== server decoder fuzz (randomized pass) =="
    rand_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "   PROP_BASE_SEED=$rand_seed"
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p server --test protocol_fuzz

    # Chaos soak: concurrent healthy + adversarial tenants against a
    # live daemon; bit-identity, backpressure, deadlines, slowloris,
    # clean shutdown. The hard timeout is the hang detector.
    echo "== server chaos soak =="
    run_tests cargo test -q -p server --test soak

    # Plan admission: a structure's plan enters the cache on its second
    # sighting, one-off structures are refused, and GetMetrics accounts
    # for both exactly.
    echo "== server plan admission =="
    run_tests cargo test -q -p server --test plan_admission

    # Error codes: a live daemon is driven to a JobErr with every code a
    # client can receive (exact message, attempts and fault seeds); a
    # reply that never comes is a hang, which the timeout turns into a
    # failure.
    echo "== server error codes =="
    run_tests cargo test -q -p server --test error_codes
}

compiler() {
    # The compiler property suite (compiled execution vs the
    # interpreter, bit-identity across engines, fission, gather
    # cross-check, the block-evaluated `InterpKernel::contrib_batch`
    # against per-iteration `contrib` on arbitrary bit patterns) and the
    # server's SubmitSource path: three fixed base
    # seeds for deterministic replay, then one randomized pass to keep
    # widening coverage (its seed prints on failure for replay via
    # PROP_SEED).
    for seed in 1 2 3; do
        echo "== compiler pipeline (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-irred --test compiler_pipeline
        PROP_BASE_SEED=$seed run_tests cargo test -q -p server --test source_jobs
    done

    echo "== compiler pipeline (randomized pass) =="
    rand_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "   PROP_BASE_SEED=$rand_seed"
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-irred --test compiler_pipeline
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p server --test source_jobs

    # CLI smoke over the checked-in fixtures: the good programs must
    # report plans (multigroup via automatic fission), the bad one must
    # exit non-zero with a spanned diagnostic on stderr.
    echo "== threadedc CLI smoke =="
    local cli_out
    cli_out=$(run_tests cargo run --release -q -p threadedc --bin threadedc -- \
        --procs 4 --k 2 crates/threadedc/testdata/fig1.tc)
    grep -q "flat plan" <<<"$cli_out"
    cli_out=$(run_tests cargo run --release -q -p threadedc --bin threadedc -- \
        --run crates/threadedc/testdata/multigroup.tc)
    grep -q "fissioned into 3 loops" <<<"$cli_out"
    grep -q "2 phased loop(s)" <<<"$cli_out"
    if cli_out=$(run_tests cargo run --release -q -p threadedc --bin threadedc -- \
        crates/threadedc/testdata/bad_nonreduction.tc 2>&1); then
        echo "compiler gate: bad_nonreduction.tc unexpectedly compiled" >&2
        return 1
    fi
    grep -q "line 3" <<<"$cli_out"
    grep -q "not a recognized reduction" <<<"$cli_out"
}

sim() {
    # EARTH backends and the ring programs on them: sim ≡ native, the
    # value loop and the sequential sweeps against per-iteration
    # references, plus lane stress.
    # backend_equivalence checks the native backend against the sim on
    # random fiber graphs (states and op counts, local messages
    # included), with the native side at host_threads 1, 2 and the host
    # default, and replays the sim under chaos fault plans (identical
    # trace CSV, RunStats and states). cross_backend runs both ring
    # programs — phased (euler, moldyn, weighted pairs) and gather (mvm)
    # — on both backends and requires the same values, with the native
    # side also under lossless fault plans. Both run on three fixed base
    # seeds for deterministic replay, then one randomized pass to keep
    # widening coverage (its seed prints on failure for replay via
    # PROP_SEED). The memsim differential property checks the
    # recency-ordered cache the sim charges memory through against the
    # stamp-LRU reference kept in its unit tests, access by access, on
    # the same seeds. The inspector differential property compares
    # every `inspect` output, byte for byte, with a plain per-iteration
    # inspector kept in lightinspector's tests (both const-width arms
    # and the run-time-width arm), next to the crate's plan-validity
    # properties, on the same seeds. The value-loop property compares
    # irred's `vector::run_phase` (every const-width and const-m arm and
    # the run-time arms, phases around the batch length) bit for bit
    # with a plain per-iteration first loop and copy loop, on the same
    # seeds: the native ≡ simulator suites cannot catch a bug in an arm,
    # since both sides run the same loop. The sequential property
    # compares irred's `seq_reduction` (the same loop, one phase per
    # block of iterations in original order) bit for bit with a plain
    # per-iteration sequential loop, every arm, 1 and 3 sweeps through a
    # read-updating post-sweep, on the same seeds. spsc_stress runs in release, where memory-ordering
    # bugs in the lock-free lanes show. The prepare-pool tests
    # (irred's `ring::tests`: typed panics, concurrent and nested
    # fan-outs, one pool of cores − 1 threads) run in release after it;
    # a pool bug shows as a hang, which the hard timeout turns into a
    # failure.
    for seed in 1 2 3; do
        echo "== backend equivalence (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-model --test backend_equivalence
        echo "== ring programs sim ≡ native (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p earth-irred --test cross_backend
        echo "== memsim cache vs stamp LRU (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p memsim --lib recency_cache_equals_stamp_lru
        echo "== inspector vs per-iteration reference (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p lightinspector --test reference --test proptests
        echo "== value loop vs per-iteration reference (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p irred --lib vector::tests
        echo "== sequential sweeps vs per-iteration reference (PROP_BASE_SEED=$seed) =="
        PROP_BASE_SEED=$seed run_tests cargo test -q -p irred --lib seq::tests::seq_equals_reference
    done

    echo "== backend equivalence (randomized pass) =="
    rand_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "   PROP_BASE_SEED=$rand_seed"
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-model --test backend_equivalence
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p earth-irred --test cross_backend
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p memsim --lib recency_cache_equals_stamp_lru
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p lightinspector --test reference --test proptests
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p irred --lib vector::tests
    PROP_BASE_SEED="$rand_seed" run_tests cargo test -q -p irred --lib seq::tests::seq_equals_reference

    echo "== SPSC lane stress (release) =="
    run_tests cargo test -q --release -p earth-model --test spsc_stress

    echo "== prepare pool (release) =="
    run_tests cargo test -q --release -p irred --lib ring::tests
}

case "${1:-all}" in
    tier1) tier1 ;;
    faults) faults ;;
    workloads) workloads ;;
    server) server ;;
    compiler) compiler ;;
    sim) sim ;;
    all)
        tier1
        faults
        workloads
        server
        compiler
        sim
        ;;
    *)
        echo "usage: $0 [tier1|faults|workloads|server|compiler|sim]" >&2
        exit 2
        ;;
esac

echo "ci.sh: all green"
