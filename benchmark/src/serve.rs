//! The `serve-*` workloads: closed-loop tenants driving a `reductiond`
//! child over loopback TCP.
//!
//! Tenants of the daemon are solver drivers that wait for each reply, so
//! the load is a closed loop: [`CONNECTIONS`] connections, one tenant
//! each, the next job submitted when the previous reply has arrived.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::Rng64;
use irred::{ExecutionConfig, PhasedSpec, ReductionEngine, SeqEngine, StrategyConfig};
use server::client::Client;
use server::executor::JobKernel;
use server::protocol::{self, Frame, SubmitJob, SubmitSource};
use threadedc::{interpret, parse, Bindings};
use workloads::Distribution;

use crate::daemon::Daemon;
use crate::stats::JobSpan;

/// Job geometry shared by the three workloads: a 2 MB frame whose
/// execute is a few ms, so the clock and not the scheduler is measured.
pub const ELEMENTS: u32 = 16_384;
pub const ITERATIONS: u32 = 131_072;
/// One generator thread per connection; never more than `nproc`.
pub const CONNECTIONS: usize = 2;
/// Structures each `serve-warm` tenant cycles through.
const WARM_STRUCTURES: usize = 4;
/// Distinct programs each `serve-source` tenant cycles through.
const SOURCE_PROGRAMS: usize = 8;
/// A `Busy` reply is retried this many times before the job counts as
/// refused.
const MAX_BUSY_RETRIES: u32 = 20;
/// Every `SAMPLE_EVERY`-th job's reply is kept and checked after the
/// timed window.
pub const SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Four structures per tenant, cycling: every job a plan-cache hit.
    Warm,
    /// Every job a never-seen structure: every job a plan-cache miss.
    Cold,
    /// `SubmitSource` of eight two-group programs per tenant.
    Source,
}

impl Kind {
    /// Jobs each connection runs before the timed window: `Warm` and
    /// `Source` visit every structure/program twice; `Cold` fills the
    /// 64-entry plan cache so the window measures steady eviction.
    pub fn warmup_jobs(self) -> u64 {
        match self {
            Kind::Warm => 2 * WARM_STRUCTURES as u64,
            Kind::Cold => 64,
            Kind::Source => 2 * SOURCE_PROGRAMS as u64,
        }
    }
}

/// Weights are multiples of 1/128 below 32: every partial sum is exact
/// in an `f64`, so a reply must match the reference bit for bit in any
/// summation order.
fn weights(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| rng.bounded_u64(4096) as f64 / 128.0)
        .collect()
}

fn indirection(rng: &mut Rng64, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| rng.bounded_u64(u64::from(ELEMENTS)) as u32)
        .collect()
}

fn submit_job(rng: &mut Rng64) -> SubmitJob {
    let iters = ITERATIONS as usize;
    SubmitJob {
        job_id: 0,
        deadline_ms: 0,
        flags: 0,
        num_elements: ELEMENTS,
        iterations: ITERATIONS,
        num_refs: 2,
        num_arrays: 1,
        procs: 4,
        k: 2,
        dist: 1,
        sweeps: 2,
        fault: None,
        weights: weights(rng, iters),
        indirection: vec![indirection(rng, iters), indirection(rng, iters)],
    }
}

/// The `multigroup.tc` shape with a varying constant: two reference
/// groups, so the compiler must fission the loop, and each constant is
/// its own compile-cache entry.
fn source_text(program: usize) -> String {
    format!(
        "double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];\n\
         forall (i = 0; i < e; i++) {{\n\
         \x20 double f = W[i] * {}.0;\n\
         \x20 P[A[i]] = P[A[i]] + f;\n\
         \x20 Q[B[i]] = Q[B[i]] - f;\n\
         }}\n",
        program + 2
    )
}

fn submit_source(rng: &mut Rng64, program: usize) -> SubmitSource {
    let iters = ITERATIONS as usize;
    SubmitSource {
        job_id: 0,
        deadline_ms: 0,
        procs: 4,
        k: 2,
        dist: 1,
        sweeps: 1,
        source: source_text(program),
        sizes: vec![("n".into(), ELEMENTS), ("e".into(), ITERATIONS)],
        // Whole-number weights keep the reduction exact (see `weights`).
        f64s: vec![(
            "W".into(),
            (0..iters).map(|_| rng.bounded_u64(50) as f64).collect(),
        )],
        ints: vec![
            ("A".into(), indirection(rng, iters)),
            ("B".into(), indirection(rng, iters)),
        ],
    }
}

/// One connection's deterministic job sequence. Job `n` of connection
/// `conn` under seed `seed` is always the same job, so a sampled reply
/// can be checked later by rebuilding the stream.
pub struct JobStream {
    kind: Kind,
    conn: usize,
    /// Pre-built frames; `Cold` keeps a single one and mutates it.
    frames: Vec<Frame>,
    issued: u64,
}

impl JobStream {
    /// Structures are disjoint across connections: `PlanCache` checkout
    /// is exclusive, so a structure shared by two tenants in flight
    /// would be a miss for the second worker.
    pub fn new(kind: Kind, seed: u64, conn: usize) -> JobStream {
        let mut rng = Rng64::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9));
        let frames = match kind {
            Kind::Warm => (0..WARM_STRUCTURES)
                .map(|_| Frame::SubmitJob(submit_job(&mut rng)))
                .collect(),
            Kind::Cold => vec![Frame::SubmitJob(submit_job(&mut rng))],
            Kind::Source => (0..SOURCE_PROGRAMS)
                .map(|p| Frame::SubmitSource(submit_source(&mut rng, p)))
                .collect(),
        };
        JobStream {
            kind,
            conn,
            frames,
            issued: 0,
        }
    }

    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The frame of the next job, with its id set. For `Cold`, entry
    /// `n mod iterations` of the first indirection array moves to
    /// another element: position `n` was untouched in every earlier
    /// job, so the structure was never seen before.
    pub fn next_frame(&mut self) -> (u64, &Frame) {
        let n = self.issued;
        self.issued += 1;
        let id = ((self.conn as u64) << 32) | n;
        let slot = (n % self.frames.len() as u64) as usize;
        match &mut self.frames[slot] {
            Frame::SubmitJob(j) => {
                j.job_id = id;
                if self.kind == Kind::Cold {
                    let pos = (n % u64::from(ITERATIONS)) as usize;
                    let step = 1 + (n / u64::from(ITERATIONS)) as u32;
                    j.indirection[0][pos] = (j.indirection[0][pos] + step) % ELEMENTS;
                }
            }
            Frame::SubmitSource(s) => s.job_id = id,
            _ => unreachable!("job streams hold submit frames only"),
        }
        (id, &self.frames[slot])
    }
}

/// What a correct reply to a submit frame holds, computed without the
/// daemon: a direct [`SeqEngine`] run for `SubmitJob`, the DSL
/// interpreter for `SubmitSource`.
pub fn reference(frame: &Frame) -> Vec<Vec<f64>> {
    match frame {
        Frame::SubmitJob(job) => {
            let spec = job_spec(job);
            SeqEngine::new(ExecutionConfig::default())
                .run(&spec, &job_strategy(job))
                .expect("reference run")
                .values
        }
        Frame::SubmitSource(src) => {
            let mut b = source_bindings(src);
            interpret(
                &parse(&src.source).expect("benchmark source parses"),
                &mut b,
            )
            .expect("reference interpretation");
            // The reply holds every declared f64 array, in declaration
            // order — the bound input `W` included.
            ["P", "Q", "W"].map(|name| b.f64s[name].clone()).to_vec()
        }
        _ => unreachable!("only submit frames have a reference"),
    }
}

pub fn job_spec(job: &SubmitJob) -> PhasedSpec<JobKernel> {
    PhasedSpec {
        kernel: Arc::new(JobKernel {
            num_refs: usize::from(job.num_refs),
            num_arrays: usize::from(job.num_arrays),
            weights: Arc::new(job.weights.clone()),
        }),
        num_elements: job.num_elements as usize,
        indirection: Arc::new(job.indirection.clone()),
    }
}

pub fn job_strategy(job: &SubmitJob) -> StrategyConfig {
    StrategyConfig::new(
        usize::from(job.procs),
        usize::from(job.k),
        if job.dist == 0 {
            Distribution::Block
        } else {
            Distribution::Cyclic
        },
        usize::from(job.sweeps),
    )
}

pub fn source_bindings(src: &SubmitSource) -> Bindings {
    let mut b = Bindings::default();
    for (name, v) in &src.sizes {
        b.sizes.insert(name.clone(), *v as usize);
    }
    for (name, v) in &src.f64s {
        b.f64s.insert(name.clone(), v.clone());
    }
    for (name, v) in &src.ints {
        b.ints.insert(name.clone(), v.clone());
    }
    b
}

/// Timestamps of one job on the generator's clock.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub span: JobSpan,
    /// When the request frame was encoded and about to be written.
    pub encoded_s: f64,
}

/// What one connection saw over a run of jobs.
#[derive(Default)]
pub struct ConnLog {
    pub jobs: Vec<JobTiming>,
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
    pub degraded: u64,
    pub request_bytes: usize,
    /// `(job number, reply values)` of the sampled jobs.
    pub samples: Vec<(u64, Vec<Vec<f64>>)>,
}

/// When a connection stops submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    After(u64),
    At(Instant),
}

/// Run one connection's closed loop. A job's clock runs from just
/// before its frame is encoded to the arrival of its `JobOk`; `Busy`
/// replies are retried after the hinted back-off inside that time.
pub fn drive(
    client: &mut Client<TcpStream>,
    stream: &mut JobStream,
    stop: Stop,
    epoch: Instant,
    sample: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    loop {
        match stop {
            Stop::After(n) if log.attempted >= n => break,
            Stop::At(t) if Instant::now() >= t => break,
            _ => {}
        }
        let (id, frame) = stream.next_frame();
        let number = id & 0xFFFF_FFFF;
        log.attempted += 1;
        let start_s = epoch.elapsed().as_secs_f64();
        let bytes = protocol::encode(frame);
        let encoded_s = epoch.elapsed().as_secs_f64();
        log.request_bytes = bytes.len();
        let mut retries = 0;
        let reply = loop {
            client.send_raw(&bytes).expect("write to the daemon");
            match await_reply(client, id) {
                Frame::Busy(b) if retries < MAX_BUSY_RETRIES => {
                    retries += 1;
                    log.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(b.retry_after_ms)));
                }
                f => break f,
            }
        };
        let end_s = epoch.elapsed().as_secs_f64();
        match reply {
            Frame::JobOk(ok) => {
                log.degraded += u64::from(ok.degraded > 0);
                log.jobs.push(JobTiming {
                    span: JobSpan { start_s, end_s },
                    encoded_s,
                });
                if sample && number % SAMPLE_EVERY == 0 {
                    log.samples.push((number, ok.values));
                }
            }
            _ => log.failed += 1,
        }
    }
    log
}

fn await_reply(client: &mut Client<TcpStream>, id: u64) -> Frame {
    loop {
        let frame = client.recv().expect("read from the daemon");
        let ours = match &frame {
            Frame::JobOk(o) => o.job_id == id,
            Frame::JobErr(e) => e.job_id == id,
            Frame::Busy(b) => b.job_id == id,
            _ => false,
        };
        if ours {
            return frame;
        }
    }
}

/// A daemon with its tenants connected and warmed up: everything up to
/// the first timed job.
pub struct Served {
    pub daemon: Daemon,
    pub conns: Vec<(Client<TcpStream>, JobStream)>,
}

pub fn setup(kind: Kind, seed: u64) -> Served {
    let streams: Vec<JobStream> = (0..CONNECTIONS)
        .map(|c| JobStream::new(kind, seed, c))
        .collect();
    let daemon = Daemon::spawn();
    let mut conns: Vec<(Client<TcpStream>, JobStream)> = streams
        .into_iter()
        .enumerate()
        .map(|(c, s)| {
            let client =
                Client::connect(daemon.addr, &format!("tenant-{c}")).expect("connect + handshake");
            (client, s)
        })
        .collect();
    let epoch = Instant::now();
    let logs = drive_all(&mut conns, Stop::After(kind.warmup_jobs()), epoch, false);
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    assert_eq!(failed, 0, "warm-up jobs must not fail");
    Served { daemon, conns }
}

/// Drive every connection on its own thread until `stop`.
pub fn drive_all(
    conns: &mut [(Client<TcpStream>, JobStream)],
    stop: Stop,
    epoch: Instant,
    sample: bool,
) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|(client, stream)| s.spawn(move || drive(client, stream, stop, epoch, sample)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Check the sampled replies of connection `conn` against references
/// computed by replaying its job stream. Returns the number wrong.
pub fn wrong_replies(kind: Kind, seed: u64, conn: usize, log: &ConnLog) -> u64 {
    let mut stream = JobStream::new(kind, seed, conn);
    // `Warm` and `Source` cycle through a few frames whose values never
    // change: one reference per frame serves every sample.
    let cycle = match kind {
        Kind::Cold => None,
        _ => Some(stream.frames.len() as u64),
    };
    let mut cached: Vec<Option<Vec<Vec<f64>>>> = vec![None; stream.frames.len()];
    let mut wrong = 0;
    for (number, values) in &log.samples {
        let expect = match cycle {
            Some(c) => {
                let slot = (number % c) as usize;
                cached[slot].get_or_insert_with(|| reference(&stream.frames[slot]))
            }
            None => {
                while stream.issued() < *number {
                    stream.next_frame();
                }
                let (_, frame) = stream.next_frame();
                cached[0].insert(reference(frame))
            }
        };
        if !bit_equal(values, expect) {
            wrong += 1;
        }
    }
    wrong
}

pub fn bit_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
