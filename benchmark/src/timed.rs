//! The timed pass: set a workload up, run its closed loop for the
//! window, check sampled outputs after the window, and reduce what was
//! seen to the end-to-end metrics plus the layer numbers the loop itself
//! can observe (the generator's view, daemon counter deltas).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use irred::RunOutcome;

use crate::daemon::metric;
use crate::engine::{EngineMolDyn, EnginePic, SimMolDyn, SingleCaller};
use crate::host::{self, HostStat};
use crate::serve::{self, ConnLog, JobTiming, Kind, Served, Stop, SAMPLE_EVERY};
use crate::stats::{self, JobSpan};

/// Slices of the window `jobs_per_s` takes its median over.
const RATE_SLICES: usize = 5;

/// Layer name → value.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one timed window produced.
pub struct Timed {
    /// One entry per set-up performed; the last one served the window.
    pub setup_s: Vec<f64>,
    /// The completed jobs of each caller, in submission order.
    pub callers: Vec<Vec<JobTiming>>,
    pub window_s: f64,
    /// CPU time of the process hosting the code under test, over the
    /// window.
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    /// Jobs that failed, were refused after retries, or were wrong.
    pub failed: u64,
    pub checked: u64,
    pub layers: Layers,
}

impl Timed {
    fn jobs(&self) -> Vec<JobSpan> {
        self.callers.iter().flatten().map(|j| j.span).collect()
    }

    pub fn job_ms(&self) -> Vec<f64> {
        self.jobs().iter().map(JobSpan::ms).collect()
    }

    pub fn completed(&self) -> u64 {
        self.callers.iter().map(Vec::len).sum::<usize>() as u64
    }

    /// `(name, value)` of every end-to-end metric, in table order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let jobs = self.completed().max(1) as f64;
        vec![
            ("setup_s", stats::median(&self.setup_s)),
            ("job_ms_p50", stats::median(&self.job_ms())),
            (
                "jobs_per_s",
                stats::jobs_per_s(&self.jobs(), self.window_s, RATE_SLICES),
            ),
            ("cpu_ms_per_job", self.cpu_ms / jobs),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Process and host counters read at both ends of a window.
struct Probe {
    pid: u32,
    cpu_ms: f64,
    host: HostStat,
}

impl Probe {
    fn start(pid: u32) -> Probe {
        Probe {
            pid,
            cpu_ms: host::cpu_ms(pid),
            host: host::host_stat(),
        }
    }

    /// `(cpu ms, steal share, host context switches)` since `start`.
    fn finish(&self) -> (f64, f64, f64) {
        let end = host::host_stat();
        (
            host::cpu_ms(self.pid) - self.cpu_ms,
            self.host.steal_share(&end),
            end.ctxt - self.host.ctxt,
        )
    }
}

/// The generator's own statistics, common to every workload.
fn client_layers(callers: &[Vec<JobTiming>], attempted: u64) -> Layers {
    let ms: Vec<f64> = callers.iter().flatten().map(|j| j.span.ms()).collect();
    // Reply → next submit, between one caller's consecutive jobs.
    let think_us: Vec<f64> = callers
        .iter()
        .flat_map(|jobs| jobs.windows(2))
        .map(|w| (w[1].span.start_s - w[0].span.end_s) * 1e6)
        .collect();
    let encode_ms: Vec<f64> = callers
        .iter()
        .flatten()
        .map(|j| (j.encoded_s - j.span.start_s) * 1e3)
        .collect();
    Layers::from([
        ("client.jobs_attempted", attempted as f64),
        ("client.jobs_ok", ms.len() as f64),
        ("client.job_ms_mean", stats::mean(&ms)),
        ("client.job_ms_p90", stats::percentile(&ms, 0.90)),
        ("client.job_ms_p99", stats::percentile(&ms, 0.99)),
        ("client.encode_ms_p50", stats::median(&encode_ms)),
        ("client.think_us_p50", stats::median(&think_us)),
    ])
}

/// How often a run sets its workload up; `setup_s` is the median.
#[derive(Debug, Clone, Copy)]
pub struct Setups {
    pub min: usize,
    pub max: usize,
}

impl Setups {
    /// A short set-up is repeated more often, until about a second has
    /// gone into set-ups: a 60 ms set-up needs more samples for a
    /// steady median than a 2 s one.
    pub const MEASURED: Setups = Setups { min: 3, max: 7 };
    pub const ONCE: Setups = Setups { min: 1, max: 1 };
    const BUDGET_S: f64 = 1.0;
}

/// Time one set-up.
fn timed_setup<T>(set_up: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let state = set_up();
    (state, t.elapsed().as_secs_f64())
}

/// The further set-ups behind `setup_s`, made after the window: the
/// process whose CPU time and peak RSS the window measured has then
/// seen exactly one set-up, however many the median is taken over.
/// Each is torn down, outside the clock, before the next starts.
fn more_setups<T>(t: &mut Timed, setups: Setups, mut set_up: impl FnMut() -> T) {
    while t.setup_s.len() < setups.min
        || (t.setup_s.len() < setups.max && t.setup_s.iter().sum::<f64>() < Setups::BUDGET_S)
    {
        let (state, secs) = timed_setup(&mut set_up);
        drop(state);
        t.setup_s.push(secs);
    }
}

/// A `serve-*` workload: [`serve::CONNECTIONS`] tenants against a daemon
/// child.
/// Returns the daemon too, so the traced pass can go on using it.
pub fn serve(kind: Kind, seed: u64, seconds: f64) -> (Timed, Served) {
    let (mut served, setup_s) = timed_setup(|| serve::setup(kind, seed));
    let before = served.daemon.metrics();
    let probe = Probe::start(served.daemon.pid());
    let epoch = Instant::now();
    let stop = Stop::At(epoch + Duration::from_secs_f64(seconds));
    let logs = serve::drive_all(&mut served.conns, stop, epoch, true);
    let (cpu_ms, steal, _) = probe.finish();
    let after = served.daemon.metrics();

    let callers: Vec<Vec<JobTiming>> = logs.iter().map(|l| l.jobs.clone()).collect();
    let completed: usize = callers.iter().map(Vec::len).sum();
    let sum = |f: fn(&ConnLog) -> u64| logs.iter().map(f).sum::<u64>();
    let attempted = sum(|l| l.attempted);
    let mut layers = client_layers(&callers, attempted);
    layers.insert("client.busy_retries", sum(|l| l.busy_retries) as f64);
    layers.insert("host.steal_share", steal);
    layers.insert(
        "server.protocol.request_bytes",
        logs[0].request_bytes as f64,
    );
    layers.insert(
        "server.admission.degraded_share",
        sum(|l| l.degraded) as f64 / completed.max(1) as f64,
    );
    let delta = |key: &str| metric(&after, key) - metric(&before, key);
    let share = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    layers.insert(
        "server.cache.plan_hit_share",
        share(delta("plan_cache_hits"), delta("plan_cache_misses")),
    );
    layers.insert("server.cache.evicted", delta("plan_cache_evicted"));
    layers.insert(
        "threadedc.compile_hit_share",
        share(delta("compile_cache_hits"), delta("compile_cache_misses")),
    );

    // Output checks, after the window: sampled replies against
    // references computed without the daemon.
    let wrong: u64 = logs
        .iter()
        .enumerate()
        .map(|(c, log)| serve::wrong_replies(kind, seed, c, log))
        .sum();
    let timed = Timed {
        setup_s: vec![setup_s],
        callers,
        window_s: seconds,
        cpu_ms,
        peak_rss_mb: host::peak_rss_mb(served.daemon.pid()),
        attempted,
        failed: sum(|l| l.failed) + wrong,
        checked: logs.iter().map(|l| l.samples.len() as u64).sum(),
        layers,
    };
    (timed, served)
}

/// A single-caller workload, hosted by the harness process itself.
pub fn single<W: SingleCaller>(seed: u64, seconds: f64, set_up: impl Fn(u64) -> W) -> (Timed, W) {
    let (mut w, setup_s) = timed_setup(|| set_up(seed));
    let pid = std::process::id();
    let probe = Probe::start(pid);
    let epoch = Instant::now();
    let mut jobs = Vec::new();
    let mut cycles = Vec::new();
    let mut samples: Vec<(u64, RunOutcome)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while epoch.elapsed().as_secs_f64() < seconds {
        let n = attempted;
        attempted += 1;
        w.stage(n);
        let start_s = epoch.elapsed().as_secs_f64();
        let out = w.job(n);
        let end_s = epoch.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                jobs.push(JobTiming {
                    span: JobSpan { start_s, end_s },
                    encoded_s: start_s,
                });
                cycles.push(out.time_cycles);
                if n % SAMPLE_EVERY == 0 {
                    samples.push((n, out));
                }
            }
            Err(_) => failed += 1,
        }
    }
    let (cpu_ms, steal, ctxt) = probe.finish();
    let peak_rss_mb = host::peak_rss_mb(pid);

    let callers = vec![jobs];
    let mut layers = client_layers(&callers, attempted);
    layers.insert("host.steal_share", steal);
    // The simulator reports cycles and starts no threads; the native
    // backend reports none and hands phases between threads.
    match cycles.first() {
        Some(&c) if c > 0 => {
            layers.insert("earth.sim.mcycles", c as f64 / 1e6);
        }
        _ => {
            layers.insert(
                "earth.native.ctx_switches_per_job",
                ctxt / callers[0].len().max(1) as f64,
            );
        }
    }
    let wrong = w.wrong(&samples, &cycles);
    let timed = Timed {
        setup_s: vec![setup_s],
        callers,
        window_s: seconds,
        cpu_ms,
        peak_rss_mb,
        attempted,
        failed: failed + wrong,
        checked: samples.len() as u64,
        layers,
    };
    (timed, w)
}

/// Run workload `name`'s timed pass.
pub fn run(name: &str, seed: u64, seconds: f64, setups: Setups) -> Timed {
    fn serve_run(kind: Kind, seed: u64, seconds: f64, setups: Setups) -> Timed {
        let (mut t, served) = serve(kind, seed, seconds);
        drop(served);
        more_setups(&mut t, setups, || serve::setup(kind, seed));
        t
    }
    fn single_run<W: SingleCaller>(
        seed: u64,
        seconds: f64,
        setups: Setups,
        set_up: impl Fn(u64) -> W,
    ) -> Timed {
        let (mut t, w) = single(seed, seconds, &set_up);
        drop(w);
        more_setups(&mut t, setups, || set_up(seed));
        t
    }
    match name {
        "serve-warm" => serve_run(Kind::Warm, seed, seconds, setups),
        "serve-cold" => serve_run(Kind::Cold, seed, seconds, setups),
        "serve-source" => serve_run(Kind::Source, seed, seconds, setups),
        "engine-moldyn" => single_run(seed, seconds, setups, EngineMolDyn::setup),
        "engine-pic" => single_run(seed, seconds, setups, EnginePic::setup),
        "sim-moldyn-p32" => single_run(seed, seconds, setups, SimMolDyn::setup),
        other => panic!("no workload named {other}"),
    }
}
