//! Every `ErrCode` a client can receive, reached over a socket: for each
//! code `ErrCode::from_u8` decodes, a live daemon is driven to a
//! `JobErr` carrying it, and the reply's message, attempts and fault
//! seeds are checked. `reach`'s `match` has no wildcard arm, so a new
//! code does not compile until it has a case here. DESIGN.md §14's
//! failure table names the case of each row.

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use earth_model::FaultConfig;
use server::client::Client;
use server::protocol::{
    encode, ErrCode, FaultSpec, Frame, JobErr, SubmitJob, SubmitSource, FLAG_NO_FALLBACK,
};
use server::{Server, ServerConfig};

fn start(cfg: ServerConfig) -> (Server, SocketAddr) {
    let srv = Server::bind_tcp("127.0.0.1:0", cfg).expect("bind");
    let addr = srv.local_addr().expect("addr");
    (srv, addr)
}

/// A healthy job of `iters` iterations over 16 elements.
fn job(id: u64, iters: u32) -> SubmitJob {
    SubmitJob {
        job_id: id,
        deadline_ms: 0,
        flags: 0,
        num_elements: 16,
        iterations: iters,
        num_refs: 2,
        num_arrays: 1,
        procs: 2,
        k: 2,
        dist: 0,
        sweeps: 2,
        fault: None,
        weights: (0..iters).map(|i| f64::from(i % 64) * 0.25).collect(),
        indirection: vec![
            (0..iters).map(|i| (i * 7) % 16).collect(),
            (0..iters).map(|i| (i * 3) % 16).collect(),
        ],
    }
}

/// A `SubmitSource` of `source` over `n` elements and `e` iterations,
/// binding `A` and either `W` (`e` ones) or `X` (`n` ones).
fn source(id: u64, source: &str, n: u32, e: u32, weights: bool, a: Vec<u32>) -> SubmitSource {
    SubmitSource {
        job_id: id,
        deadline_ms: 0,
        procs: 2,
        k: 2,
        dist: 1,
        sweeps: 1,
        source: source.into(),
        sizes: vec![("n".into(), n), ("e".into(), e)],
        f64s: if weights {
            vec![("W".into(), vec![1.0; e as usize])]
        } else {
            vec![("X".into(), vec![1.0; n as usize])]
        },
        ints: vec![("A".into(), a)],
    }
}

const SCATTER: &str = "double X[n]; double W[e]; int A[e];\n\
                       forall (i = 0; i < e; i++) { X[A[i]] += W[i]; }";

fn job_err(frame: Frame) -> JobErr {
    match frame {
        Frame::JobErr(e) => e,
        f => panic!("expected JobErr, got {f:?}"),
    }
}

/// Asserts a reply's code, exact message, and that it reports no
/// native attempt.
fn assert_err(err: &JobErr, code: ErrCode, message: &str) {
    assert_eq!(err.code, code, "{}", err.message);
    assert_eq!(err.message, message);
    assert_eq!((err.attempts, err.fault_seeds.len()), (0, 0), "{err:?}");
}

/// Drive a live daemon to a `JobErr` with `code`.
fn reach(code: ErrCode) {
    match code {
        ErrCode::InvalidSpec => {
            let (srv, addr) = start(ServerConfig::default());
            let mut c = Client::connect(addr, "invalid").expect("connect");
            // An indirection entry past the reduction array, rejected by
            // the LightInspector's validation.
            let mut j = job(1, 40);
            j.indirection[1][9] = 16;
            assert_err(
                &job_err(c.submit(j).expect("submit")),
                code,
                "invalid phased spec: indirection[1][9] = 16 is outside the reduction array (n = 16)",
            );
            // A source job's size binding out of range.
            let mut s = source(2, SCATTER, 8, 16, true, (0..16).map(|i| i % 8).collect());
            s.sizes[0].1 = 0;
            assert_err(
                &job_err(c.submit_source(s).expect("submit")),
                code,
                "size binding `n` = 0 is out of range",
            );
            // A source job's array bound with the wrong length, rejected
            // with its declaration's span.
            let s = source(3, SCATTER, 8, 16, true, (0..10).map(|i| i % 8).collect());
            assert_err(
                &job_err(c.submit_source(s).expect("submit")),
                code,
                "line 1:27: array `A` bound with wrong length",
            );
            srv.stop();
        }
        ErrCode::Strategy => {
            let (srv, addr) = start(ServerConfig::default());
            let mut c = Client::connect(addr, "strategy").expect("connect");
            let mut j = job(1, 40);
            j.procs = 0;
            assert_err(
                &job_err(c.submit(j).expect("submit")),
                code,
                "invalid strategy: strategy needs at least 1 processor",
            );
            srv.stop();
        }
        ErrCode::Panicked => {
            let (srv, addr) = start(ServerConfig::default());
            let mut c = Client::connect(addr, "panicked").expect("connect");
            // `A[5]` reads past `X` in a regular loop, which runs with
            // checked indexing on the worker; the panic is caught.
            let gather = "double X[n]; double Y[e]; int A[e];\n\
                          forall (i = 0; i < e; i++) { Y[i] = X[A[i]] * 2.0; }";
            let mut a: Vec<u32> = (0..12).map(|i| i % 8).collect();
            a[5] = 8;
            assert_err(
                &job_err(
                    c.submit_source(source(1, gather, 8, 12, false, a))
                        .expect("submit"),
                ),
                code,
                "source job panicked during execution (index out of range?)",
            );
            srv.stop();
        }
        ErrCode::Stalled => {
            let (srv, addr) = start(ServerConfig::default());
            let mut c = Client::connect(addr, "stalled").expect("connect");
            // Lossy faults drop messages, so every attempt starves; with
            // no fallback the last stall is the reply, carrying the seed
            // of every rung.
            let mut j = job(1, 400);
            j.procs = 4;
            j.sweeps = 4;
            j.fault = Some(FaultSpec { kind: 2, seed: 17 });
            j.flags = FLAG_NO_FALLBACK;
            let err = job_err(c.submit(j).expect("submit"));
            assert_eq!(err.code, code, "{}", err.message);
            assert!(
                err.message
                    .starts_with("run failed: machine stalled (starved) after "),
                "{}",
                err.message
            );
            let max_attempts = ServerConfig::default().recovery.max_attempts;
            assert_eq!(err.attempts, max_attempts);
            let fault = FaultConfig::lossy(17);
            let seeds: Vec<Option<u64>> = (0..max_attempts)
                .map(|n| {
                    Some(if n == 0 {
                        17
                    } else {
                        fault.reseeded(n.into()).seed
                    })
                })
                .collect();
            assert_eq!(err.fault_seeds, seeds);
            srv.stop();
        }
        ErrCode::Deadline => {
            let (srv, addr) = start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            });
            let mut c = Client::connect(addr, "deadline").expect("connect");
            // A far longer run than its 300 ms budget, cancelled mid-run
            // on its one attempt, and a 1 ms job queued behind it on the
            // one worker, which expires before it starts.
            let mut slow = job(1, 20_000);
            slow.sweeps = 20_000;
            slow.deadline_ms = 300;
            let mut queued = job(2, 40);
            queued.deadline_ms = 1;
            c.send(&Frame::SubmitJob(slow)).expect("send");
            c.send(&Frame::SubmitJob(queued)).expect("send");
            let (mut mid_run, mut expired) = (None, None);
            for _ in 0..2 {
                let err = job_err(c.recv().expect("reply"));
                match err.job_id {
                    1 => mid_run = Some(err),
                    _ => expired = Some(err),
                }
            }
            let mid_run = mid_run.expect("a reply to the slow job");
            assert_eq!(mid_run.code, code, "{}", mid_run.message);
            assert!(
                mid_run
                    .message
                    .starts_with("run failed: machine stalled (deadline exceeded) after "),
                "{}",
                mid_run.message
            );
            assert_eq!((mid_run.attempts, mid_run.fault_seeds), (1, vec![None]));
            assert_err(
                &expired.expect("a reply to the queued job"),
                code,
                "deadline expired before execution started",
            );
            srv.stop();
        }
        ErrCode::Refused => {
            let (srv, addr) = start(ServerConfig::default());
            let mut admin = Client::connect(addr, "admin").expect("connect");
            let mut late = Client::connect(addr, "late").expect("connect");
            // The late client's frame begins before the shutdown and ends
            // after it: the daemon finishes reading it and refuses the job.
            let bytes = encode(&Frame::SubmitJob(job(7, 40)));
            late.send_raw(&bytes[..8]).expect("frame head");
            thread::sleep(Duration::from_millis(250));
            admin.shutdown().expect("shutdown ack");
            late.send_raw(&bytes[8..]).expect("frame tail");
            let err = job_err(late.recv().expect("reply"));
            assert_eq!(err.job_id, 7);
            assert_err(&err, code, "server is shutting down");
            srv.stop();
        }
        ErrCode::Compile => {
            let (srv, addr) = start(ServerConfig::default());
            let mut c = Client::connect(addr, "compile").expect("connect");
            // A store that is not a reduction: rejected by the dependence
            // test with the offending line and column.
            let bad = "double X[n]; double W[e]; int A[e];\n\
                       forall (i = 0; i < e; i++) {\n  X[A[i]] = 1.0;\n}";
            let s = source(1, bad, 8, 16, true, (0..16).map(|i| i % 8).collect());
            assert_err(
                &job_err(c.submit_source(s).expect("submit")),
                code,
                "line 3:3: `X[A[i]] = …` is not a recognized reduction: the stored value \
                 does not accumulate onto `X[A[i]]`, so iterations that collide on `A` carry \
                 a true dependence; write `X[A[i]] += …` (or the equivalent `=` form) if a \
                 reduction was intended",
            );
            srv.stop();
        }
    }
}

#[test]
fn every_live_code_reaches_a_client() {
    let runs: Vec<_> = (0..=u8::MAX)
        .filter_map(ErrCode::from_u8)
        .map(|code| (code, thread::spawn(move || reach(code))))
        .collect();
    assert_eq!(runs.len(), 7, "the live codes");
    let unreached: Vec<ErrCode> = runs
        .into_iter()
        .filter_map(|(code, run)| run.join().is_err().then_some(code))
        .collect();
    assert!(unreached.is_empty(), "not reached: {unreached:?}");
}
