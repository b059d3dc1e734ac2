//! End-to-end tests for the `SubmitSource` path: a live daemon compiles
//! tenant-submitted DSL programs (through the per-tenant compile
//! cache), executes them on the compiled flat fast path, and returns
//! either the declared arrays or a typed, span-carrying compile error —
//! never a dropped connection.

use server::client::Client;
use server::protocol::{ErrCode, Frame, SubmitSource};
use server::{Server, ServerConfig};
use threadedc::{interpret, parse, Bindings};

/// An un-annotated multi-group reduction: recognition must normalize
/// both statements, analysis must split them into two reference groups,
/// and fission must split the loop — all server-side.
const MULTI_GROUP: &str = "\
double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];
forall (i = 0; i < e; i++) {
    double f = W[i] * 2.0;
    P[A[i]] = P[A[i]] + f;
    Q[B[i]] = Q[B[i]] - f;
}";

fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Whole-number weights keep every partial sum exact, so the phased
/// result is bit-identical to the sequential interpreter regardless of
/// summation order.
fn inputs(n: usize, e: usize, seed: u64) -> (Vec<f64>, Vec<u32>, Vec<u32>) {
    let mut next = rng(seed);
    let w = (0..e).map(|_| (next() % 50) as f64).collect();
    let a = (0..e).map(|_| (next() % n as u64) as u32).collect();
    let b = (0..e).map(|_| (next() % n as u64) as u32).collect();
    (w, a, b)
}

fn source_job(id: u64, n: u32, e: u32, seed: u64) -> SubmitSource {
    let (w, a, b) = inputs(n as usize, e as usize, seed);
    SubmitSource {
        job_id: id,
        deadline_ms: 0,
        procs: 2,
        k: 2,
        dist: 1,
        sweeps: 1,
        source: MULTI_GROUP.into(),
        sizes: vec![("n".into(), n), ("e".into(), e)],
        f64s: vec![("W".into(), w)],
        ints: vec![("A".into(), a), ("B".into(), b)],
    }
}

fn start() -> (Server, std::net::SocketAddr) {
    let srv = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = srv.local_addr().expect("addr");
    (srv, addr)
}

/// N distinct programs, each submitted once and then resubmitted R
/// times: every reply is bit-identical to the sequential interpreter,
/// and the tenant's compile cache accounts for exactly N misses, N·R
/// hits and N entries.
#[test]
fn source_job_matches_interpreter_and_cache_hits_on_resubmit() {
    const PROGRAMS: u64 = 4;
    const RESUBMITS: u64 = 2;
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "alice").expect("connect");

    let (n, e) = (24u32, 150u32);
    let mut id = 0;
    for idx in 0..PROGRAMS {
        // A distinct multiplier makes a distinct source text, so a
        // distinct compile-cache key; program 0 is `MULTI_GROUP` itself.
        let source = MULTI_GROUP.replace("2.0", &format!("{}.0", idx + 2));
        let seed = 42 + idx;

        // Reference: the sequential interpreter on identical bindings.
        let (w, a, b) = inputs(n as usize, e as usize, seed);
        let mut bind = Bindings::default();
        bind.sizes.insert("n".into(), n as usize);
        bind.sizes.insert("e".into(), e as usize);
        bind.f64s.insert("W".into(), w);
        bind.ints.insert("A".into(), a);
        bind.ints.insert("B".into(), b);
        interpret(&parse(&source).unwrap(), &mut bind).unwrap();

        for _ in 0..=RESUBMITS {
            id += 1;
            let job = SubmitSource {
                source: source.clone(),
                ..source_job(id, n, e, seed)
            };
            let frame = c.submit_source(job).expect("submit");
            let Frame::JobOk(ok) = frame else {
                panic!("program {idx}: expected JobOk, got {frame:?}");
            };
            // Values are the non-temp f64 decls in declaration order: P, Q, W.
            assert_eq!(ok.values.len(), 3);
            for (name, got) in [("P", &ok.values[0]), ("Q", &ok.values[1])] {
                let want = &bind.f64s[name];
                assert_eq!(got.len(), want.len());
                for (x, y) in got.iter().zip(want) {
                    assert_eq!(x.to_bits(), y.to_bits(), "program {idx} {name}: {x} vs {y}");
                }
            }
        }
    }

    let metrics = c.metrics().expect("metrics");
    let get = |key: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {key} missing in:\n{metrics}"))
    };
    assert_eq!(get("compile_cache_misses "), PROGRAMS);
    assert_eq!(get("compile_cache_hits "), PROGRAMS * RESUBMITS);
    assert_eq!(get("compile_cache_entries "), PROGRAMS);

    srv.stop();
}

#[test]
fn bad_source_yields_spanned_compile_error_not_a_drop() {
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "bob").expect("connect");

    // A genuine non-reduction dependence: rejected by the dependence
    // test with the offending line and column.
    let frame = c
        .submit_source(SubmitSource {
            job_id: 9,
            deadline_ms: 0,
            procs: 2,
            k: 2,
            dist: 0,
            sweeps: 1,
            source: "double X[n]; int A[e];\nforall (i = 0; i < e; i++) {\n  X[A[i]] = 1.0;\n}"
                .into(),
            sizes: vec![("n".into(), 8), ("e".into(), 16)],
            f64s: vec![],
            ints: vec![("A".into(), (0..16).map(|i| i % 8).collect())],
        })
        .expect("submit");
    let Frame::JobErr(err) = frame else {
        panic!("expected JobErr, got {frame:?}");
    };
    assert_eq!(err.code, ErrCode::Compile);
    assert!(err.message.contains("line 3"), "{}", err.message);
    assert!(
        err.message.contains("not a recognized reduction"),
        "{}",
        err.message
    );

    // The connection survives: a healthy job right after succeeds.
    let frame = c.submit_source(source_job(10, 16, 80, 7)).expect("submit");
    assert!(matches!(frame, Frame::JobOk(_)), "got {frame:?}");

    // Failed compiles are not cached: entries stays at the one healthy
    // program.
    let metrics = c.metrics().expect("metrics");
    let entries = metrics
        .lines()
        .find_map(|l| l.strip_prefix("compile_cache_entries "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap();
    assert_eq!(entries, 1);

    srv.stop();
}

#[test]
fn unbound_array_is_a_typed_error() {
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "carol").expect("connect");

    // Compiles fine, but `A` has the wrong length for `e`: the lowering
    // rejects it with a typed frame instead of panicking a worker.
    let mut job = source_job(20, 24, 150, 3);
    job.ints[0].1.truncate(10);
    let frame = c.submit_source(job).expect("submit");
    let Frame::JobErr(err) = frame else {
        panic!("expected JobErr, got {frame:?}");
    };
    assert_eq!(err.code, ErrCode::InvalidSpec);
    assert!(err.message.contains("line"), "{}", err.message);

    srv.stop();
}

/// A bare `SubmitSource` around `source` with the given bindings.
fn custom_job(
    id: u64,
    source: &str,
    sizes: &[(&str, u32)],
    f64s: Vec<(&str, Vec<f64>)>,
    ints: Vec<(&str, Vec<u32>)>,
) -> SubmitSource {
    SubmitSource {
        job_id: id,
        deadline_ms: 0,
        procs: 2,
        k: 2,
        dist: 1,
        sweeps: 1,
        source: source.into(),
        sizes: sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        f64s: f64s.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ints: ints.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    }
}

#[test]
fn out_of_range_read_in_a_regular_loop_is_a_typed_error_and_the_connection_survives() {
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "dave").expect("connect");

    // `A[5]` points past `X`: the lowered regular loop indexes with
    // bounds checks on the worker thread, the panic is caught, and the
    // reply is a typed frame.
    let gather = "double X[n]; double Y[e]; int A[e];\n\
                  forall (i = 0; i < e; i++) { Y[i] = X[A[i]] * 2.0; }";
    let mut a: Vec<u32> = (0..12).map(|i| i % 8).collect();
    a[5] = 8;
    let job = custom_job(
        30,
        gather,
        &[("n", 8), ("e", 12)],
        vec![("X", vec![1.0; 8])],
        vec![("A", a.clone())],
    );
    let Frame::JobErr(err) = c.submit_source(job).expect("submit") else {
        panic!("an out-of-range gather must fail");
    };
    assert_eq!(err.code, ErrCode::Panicked);
    assert_eq!(err.job_id, 30);

    // Same connection, same worker pool: the in-range version of the
    // same program and a phased job both succeed.
    a[5] = 7;
    let job = custom_job(
        31,
        gather,
        &[("n", 8), ("e", 12)],
        vec![("X", (0..8).map(f64::from).collect())],
        vec![("A", a.clone())],
    );
    let Frame::JobOk(ok) = c.submit_source(job).expect("submit") else {
        panic!("the healthy gather must succeed");
    };
    let want: Vec<f64> = a.iter().map(|&j| f64::from(j) * 2.0).collect();
    assert_eq!(ok.values, vec![(0..8).map(f64::from).collect(), want]);
    let frame = c.submit_source(source_job(32, 16, 80, 7)).expect("submit");
    assert!(matches!(frame, Frame::JobOk(_)), "got {frame:?}");

    srv.stop();
}

#[test]
fn seventeen_locals_is_a_compile_error_not_a_worker_panic() {
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "erin").expect("connect");

    let mut source = String::from("double X[n]; double W[e]; int A[e];\n");
    source.push_str("forall (i = 0; i < e; i++) {\n");
    for j in 0..17 {
        source.push_str(&format!("  double t{j} = W[i] + {j}.0;\n"));
    }
    source.push_str("  X[A[i]] += t16;\n}\n");
    let job = custom_job(
        40,
        &source,
        &[("n", 8), ("e", 16)],
        vec![("W", vec![1.0; 16])],
        vec![("A", (0..16).map(|i| i % 8).collect())],
    );
    let Frame::JobErr(err) = c.submit_source(job).expect("submit") else {
        panic!("17 locals must be refused");
    };
    assert_eq!(err.code, ErrCode::Compile);
    assert!(err.message.contains("line 19"), "{}", err.message);
    assert!(err.message.contains("at most 16 locals"), "{}", err.message);

    srv.stop();
}

#[test]
fn error_codes_come_from_the_error_kind_not_the_message_text() {
    let (srv, addr) = start();
    let mut c = Client::connect(addr, "frank").expect("connect");

    // An ill-shaped binding of an array that happens to be called
    // `deadline`: a binding error, whatever words its message contains.
    let job = custom_job(
        50,
        "double X[n]; double deadline[e]; int A[e];\n\
         forall (i = 0; i < e; i++) { X[A[i]] += deadline[i]; }",
        &[("n", 8), ("e", 16)],
        vec![("deadline", vec![1.0; 15])],
        vec![("A", (0..16).map(|i| i % 8).collect())],
    );
    let Frame::JobErr(err) = c.submit_source(job).expect("submit") else {
        panic!("a short array must be refused");
    };
    assert!(err.message.contains("deadline"), "{}", err.message);
    assert_eq!(err.code, ErrCode::InvalidSpec);

    // An engine rejection (reduction target past `X`) maps through the
    // same table `SubmitJob` replies use, and keeps the source span.
    let mut job = source_job(51, 24, 150, 3);
    job.ints[1].1[9] = 24;
    let Frame::JobErr(err) = c.submit_source(job).expect("submit") else {
        panic!("an out-of-range reduction target must be refused");
    };
    assert_eq!(err.code, ErrCode::InvalidSpec);
    assert!(err.message.contains("line 2"), "{}", err.message);
    assert!(
        err.message.contains("outside the reduction array"),
        "{}",
        err.message
    );

    srv.stop();
}
