//! Reduction-as-a-service: a std-only, fault-isolated, multi-tenant
//! daemon serving phased irregular reductions over length-prefixed
//! frames (TCP or Unix sockets).
//!
//! The paper's amortization story — inspect once, execute many times —
//! becomes a serving-layer plan cache keyed by structure hash; the
//! repo's fault/recovery machinery (supervised native backend,
//! watchdog, recovery ladder, sequential fallback) becomes per-job
//! fault isolation: one tenant's panicking, stalling, or malformed job
//! yields a typed error frame while every other connection keeps being
//! served. Admission control bounds memory (a full queue answers
//! `Busy`, not growth), round-robin dispatch with per-tenant in-flight
//! caps bounds unfairness, and a backlog at three-quarters capacity
//! degrades execution to the sequential engine before the server
//! refuses anything: the same reduction, bit-identical only where the
//! sums are exact.
//!
//! See DESIGN.md §14 for the protocol grammar and the isolation /
//! degradation ladder.

pub mod admission;
pub mod cache;
pub mod client;
pub mod executor;
pub mod protocol;
pub mod session;

use std::io;
use std::net::{TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use irred::RecoveryPolicy;
use trace::MetricsRegistry;

use admission::{Admission, AdmissionConfig};
use executor::Executor;
use protocol::DEFAULT_MAX_FRAME;
use session::Conn;

/// Every knob the daemon takes, with serving-appropriate defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity across all tenants.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap.
    pub tenant_inflight: usize,
    /// Largest negotiable frame.
    pub max_frame: u32,
    /// Drop a connection idle longer than this between frames.
    pub idle_timeout: Duration,
    /// Drop a connection that takes longer than this to deliver one
    /// frame after its first byte (slowloris defense).
    pub midframe_timeout: Duration,
    /// Native watchdog interval for job execution.
    pub watchdog: Duration,
    /// Recovery ladder applied to every native job.
    pub recovery: RecoveryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            tenant_inflight: 2,
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(30),
            midframe_timeout: Duration::from_secs(2),
            watchdog: Duration::from_secs(2),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Shared server state: what sessions and workers both reach through.
pub struct ServerInner {
    pub cfg: ServerConfig,
    pub admission: Admission,
    pub executor: Executor,
    pub metrics: Mutex<MetricsRegistry>,
    pub shutdown: AtomicBool,
    jobs_executed: AtomicU64,
}

impl ServerInner {
    fn new(cfg: ServerConfig) -> Self {
        ServerInner {
            cfg,
            admission: Admission::new(AdmissionConfig {
                queue_capacity: cfg.queue_capacity,
                tenant_inflight: cfg.tenant_inflight,
            }),
            executor: Executor::new(cfg.recovery, cfg.watchdog),
            metrics: Mutex::new(MetricsRegistry::default()),
            shutdown: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
        }
    }

    /// Stop accepting connections and jobs; queued jobs drain first.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.admission.shutdown();
    }

    pub fn count_proto_error(&self) {
        self.metrics.lock().unwrap().count("proto_errors", 1);
    }

    pub fn count_tenant(&self, tenant: &str, what: &str) {
        self.metrics
            .lock()
            .unwrap()
            .count_labeled(what, "tenant", tenant, 1);
    }

    /// Render the metrics registry (plus live cache/queue stats) as
    /// `name value` lines for a [`protocol::Frame::MetricsReport`].
    pub fn metrics_report(&self) -> String {
        let mut out = String::new();
        {
            let m = self.metrics.lock().unwrap();
            for (name, v) in m.counters() {
                out.push_str(&format!("{name} {v}\n"));
            }
            for (name, v) in m.gauges() {
                out.push_str(&format!("{name} {v}\n"));
            }
        }
        {
            let c = self.executor.cache.lock().unwrap();
            out.push_str(&format!("plan_cache_entries {}\n", c.len()));
            out.push_str(&format!("plan_cache_hits {}\n", c.hits));
            out.push_str(&format!("plan_cache_misses {}\n", c.misses));
            out.push_str(&format!("plan_cache_quarantined {}\n", c.quarantined));
            out.push_str(&format!("plan_cache_evicted {}\n", c.evicted));
            out.push_str(&format!("plan_cache_refused {}\n", c.refused));
            out.push_str(&format!("plan_cache_collisions {}\n", c.collisions));
        }
        {
            let (entries, hits, misses) = self.executor.compile_cache_stats();
            out.push_str(&format!("compile_cache_entries {entries}\n"));
            out.push_str(&format!("compile_cache_hits {hits}\n"));
            out.push_str(&format!("compile_cache_misses {misses}\n"));
        }
        out.push_str(&format!("queue_depth {}\n", self.admission.queue_len()));
        out.push_str(&format!(
            "jobs_executed {}\n",
            self.jobs_executed.load(Ordering::Relaxed)
        ));
        out
    }
}

/// Worker loop: pull, execute, reply, repeat — until shutdown drains
/// the queue. A worker never dies to a job: every failure mode inside
/// `run_job` is a typed frame.
fn worker_loop(srv: Arc<ServerInner>) {
    while let Some((job, shed)) = srv.admission.next() {
        let frame = match &job.work {
            admission::JobWork::Job(submit) => srv.executor.run_job(submit, shed, job.deadline),
            admission::JobWork::Source(src) => {
                srv.executor
                    .run_source(&job.tenant, src, shed, job.deadline)
            }
        };
        srv.jobs_executed.fetch_add(1, Ordering::Relaxed);
        match &frame {
            protocol::Frame::JobOk(ok) => {
                srv.count_tenant(&job.tenant, "jobs_ok");
                if ok.degraded > 0 {
                    srv.count_tenant(&job.tenant, "jobs_degraded");
                }
            }
            protocol::Frame::JobErr(_) => srv.count_tenant(&job.tenant, "jobs_err"),
            _ => {}
        }
        job.reply.send(&frame);
        srv.admission.done(&job.tenant);
    }
}

/// A running daemon: accept thread(s) + worker pool. Dropping it does
/// not stop it; call [`Server::stop`] (or send a `Shutdown` frame).
pub struct Server {
    inner: Arc<ServerInner>,
    threads: Vec<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: Option<std::net::SocketAddr>,
}

impl Server {
    /// Bind a TCP listener and start serving.
    pub fn bind_tcp(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr().ok();
        let mut srv = Server::start(cfg);
        srv.local_addr = local_addr;
        srv.accept_tcp(listener);
        Ok(srv)
    }

    /// Bind a Unix socket listener and start serving.
    #[cfg(unix)]
    pub fn bind_uds(path: &std::path::Path, cfg: ServerConfig) -> io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let mut srv = Server::start(cfg);
        srv.accept_uds(listener);
        Ok(srv)
    }

    /// Start workers only (no listener yet).
    fn start(cfg: ServerConfig) -> Server {
        let inner = Arc::new(ServerInner::new(cfg));
        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let srv = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("reductiond-worker-{i}"))
                    .spawn(move || worker_loop(srv))
                    .expect("spawn worker"),
            );
        }
        Server {
            inner,
            threads,
            sessions: Arc::new(Mutex::new(Vec::new())),
            local_addr: None,
        }
    }

    /// The bound TCP address (for `bind_tcp(.., ":0")` tests).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.local_addr
    }

    pub fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
    }

    fn accept_tcp(&mut self, listener: TcpListener) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let srv = Arc::clone(&self.inner);
        let sessions = Arc::clone(&self.sessions);
        self.threads.push(
            std::thread::Builder::new()
                .name("reductiond-accept-tcp".into())
                .spawn(move || accept_loop(listener_tcp(listener), srv, sessions))
                .expect("spawn accept"),
        );
    }

    #[cfg(unix)]
    fn accept_uds(&mut self, listener: UnixListener) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let srv = Arc::clone(&self.inner);
        let sessions = Arc::clone(&self.sessions);
        self.threads.push(
            std::thread::Builder::new()
                .name("reductiond-accept-uds".into())
                .spawn(move || accept_loop(listener_uds(listener), srv, sessions))
                .expect("spawn accept"),
        );
    }

    /// Initiate shutdown and join everything: accept threads, workers
    /// (after the queue drains), and sessions. Returns only when the
    /// daemon has fully exited.
    pub fn stop(self) {
        self.inner.begin_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
        let sessions = std::mem::take(&mut *self.sessions.lock().unwrap());
        for s in sessions {
            let _ = s.join();
        }
    }

    /// Block until a `Shutdown` frame (or `stop` from another thread)
    /// ends the daemon. Used by `main`.
    pub fn wait(self) {
        while !self.inner.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop();
    }
}

/// Type-erased nonblocking accept: returns connections until an error
/// other than `WouldBlock`.
type Acceptor<C> = Box<dyn FnMut() -> io::Result<Option<C>> + Send>;

fn listener_tcp(listener: TcpListener) -> Acceptor<std::net::TcpStream> {
    Box::new(move || match listener.accept() {
        Ok((s, _)) => Ok(Some(s)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

#[cfg(unix)]
fn listener_uds(listener: UnixListener) -> Acceptor<std::os::unix::net::UnixStream> {
    Box::new(move || match listener.accept() {
        Ok((s, _)) => Ok(Some(s)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

fn accept_loop<C: Conn>(
    mut accept: Acceptor<C>,
    srv: Arc<ServerInner>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !srv.shutdown.load(Ordering::Relaxed) {
        match accept() {
            Ok(Some(conn)) => {
                let srv = Arc::clone(&srv);
                if let Ok(h) = std::thread::Builder::new()
                    .name("reductiond-session".into())
                    .spawn(move || session::serve(conn, srv))
                {
                    let mut s = sessions.lock().unwrap();
                    // Reap finished sessions so the handle list cannot
                    // grow without bound under connection churn.
                    s.retain(|h| !h.is_finished());
                    s.push(h);
                }
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => return,
        }
    }
}
