//! Per-connection protocol state machine: handshake, deadline-guarded
//! frame reading, and dispatch into admission.
//!
//! Robustness rules, in order of appearance on a connection:
//! - before the handshake only [`HELLO_MAX_FRAME`]-sized frames are
//!   accepted, so an anonymous peer cannot make the server buffer much;
//! - a connection that sits idle longer than `idle_timeout` between
//!   frames is dropped;
//! - once the first byte of a frame arrives, the *whole* frame must
//!   arrive within `midframe_timeout` — a client trickling one byte at
//!   a time (slowloris) is dropped, not waited on;
//! - any protocol violation gets one best-effort [`ProtoErr`] frame and
//!   the connection is closed. The daemon never answers garbage with a
//!   panic, a hang, or silence-plus-leak;
//! - after a shutdown, a connection is closed between frames; a frame
//!   already begun is finished, and a job it submits is refused with a
//!   typed `JobErr`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{Admit, Job, JobWork};
use crate::executor::{err_frame, Failure};
use crate::protocol::{
    check_len, decode, encode, Busy, Frame, HelloAck, ProtoErr, ProtocolError, HELLO_MAX_FRAME,
    VERSION,
};
use crate::ServerInner;

/// Coarse poll interval for read timeouts: short enough that idle /
/// slowloris / shutdown checks are responsive, long enough to be free.
const POLL: Duration = Duration::from_millis(25);

/// A shared, mutex-serialized writer for one connection. Worker threads
/// and the session thread both send through it; a write failure (client
/// gone) drops the writer and later sends become no-ops — job results
/// for a disconnected client are discarded, never block a worker.
#[derive(Clone)]
pub struct Reply {
    w: Arc<Mutex<Option<Box<dyn Write + Send>>>>,
}

impl Reply {
    pub fn new(w: Box<dyn Write + Send>) -> Reply {
        Reply {
            w: Arc::new(Mutex::new(Some(w))),
        }
    }

    /// A reply that discards everything (tests, abandoned jobs).
    pub fn sink() -> Reply {
        Reply {
            w: Arc::new(Mutex::new(None)),
        }
    }

    /// Send a frame; returns whether the client is still reachable.
    pub fn send(&self, frame: &Frame) -> bool {
        let bytes = encode(frame);
        let mut guard = self.w.lock().unwrap();
        let Some(w) = guard.as_mut() else {
            return false;
        };
        if w.write_all(&bytes).and_then(|()| w.flush()).is_err() {
            *guard = None;
            return false;
        }
        true
    }
}

/// Transport abstraction: TCP and Unix sockets both serve sessions.
pub trait Conn: Read + Send + Sized + 'static {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()>;
    fn writer(&self) -> io::Result<Box<dyn Write + Send>>;
}

impl Conn for TcpStream {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
    fn writer(&self) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
    fn writer(&self) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

enum ReadEnd {
    Frame(Vec<u8>),
    /// Clean close, idle timeout, slowloris, I/O error, or shutdown —
    /// all end the session without a reply.
    Closed,
    Proto(ProtocolError),
}

/// Read one length-prefixed frame under the deadline regime.
fn read_frame<C: Conn>(
    conn: &mut C,
    max_frame: u32,
    idle_timeout: Duration,
    midframe_timeout: Duration,
    shutdown: &AtomicBool,
) -> ReadEnd {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    let idle_deadline = Instant::now() + idle_timeout;
    // A frame's clock starts at its first byte.
    let mut frame_deadline: Option<Instant> = None;
    let mut body: Option<(Vec<u8>, usize)> = None;

    loop {
        let now = Instant::now();
        match frame_deadline {
            Some(d) if now >= d => return ReadEnd::Closed, // slowloris
            // Shutdown closes a connection between frames only: a frame
            // whose first byte has arrived is read to its end (within
            // the mid-frame deadline) and answered.
            None if now >= idle_deadline || shutdown.load(Ordering::Relaxed) => {
                return ReadEnd::Closed
            }
            _ => {}
        }
        let dst: &mut [u8] = match &mut body {
            None => &mut header[got..],
            Some((buf, read)) => &mut buf[*read..],
        };
        match conn.read(dst) {
            Ok(0) => return ReadEnd::Closed,
            Ok(n) => {
                if frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + midframe_timeout);
                }
                match &mut body {
                    None => {
                        got += n;
                        if got == 4 {
                            let len = u32::from_le_bytes(header);
                            match check_len(len, max_frame) {
                                Ok(n) => body = Some((vec![0u8; n], 0)),
                                Err(e) => return ReadEnd::Proto(e),
                            }
                        }
                    }
                    Some((buf, read)) => {
                        *read += n;
                        if *read == buf.len() {
                            let (buf, _) = body.take().expect("body present");
                            return ReadEnd::Frame(buf);
                        }
                    }
                }
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted => {}
                _ => return ReadEnd::Closed,
            },
        }
    }
}

/// Drive one connection to completion. Runs on its own thread; never
/// panics, never blocks forever (every wait is deadline- or
/// shutdown-bounded).
pub fn serve<C: Conn>(mut conn: C, srv: Arc<ServerInner>) {
    let Ok(writer) = conn.writer() else { return };
    let reply = Reply::new(writer);
    if conn.set_read_timeout_(Some(POLL)).is_err() {
        return;
    }

    let mut tenant: Option<String> = None;
    let mut max_frame = HELLO_MAX_FRAME;

    loop {
        let read = read_frame(
            &mut conn,
            max_frame,
            srv.cfg.idle_timeout,
            srv.cfg.midframe_timeout,
            &srv.shutdown,
        );
        let frame = match read {
            ReadEnd::Frame(bytes) => decode(&bytes),
            ReadEnd::Closed => return,
            ReadEnd::Proto(e) => Err(e),
        };
        // Every protocol violation ends here: one best-effort `ProtoErr`,
        // then the connection closes.
        let violation = match (frame, &tenant) {
            (Err(e), _) => e.to_string(),
            (Ok(Frame::Hello(h)), None) => {
                let granted = match h.max_frame {
                    0 => srv.cfg.max_frame,
                    req => req.min(srv.cfg.max_frame).max(HELLO_MAX_FRAME),
                };
                max_frame = granted;
                tenant = Some(h.tenant);
                reply.send(&Frame::HelloAck(HelloAck {
                    version: VERSION,
                    max_frame: granted,
                    queue_capacity: srv.admission.config().queue_capacity as u32,
                    tenant_inflight: srv.admission.config().tenant_inflight as u16,
                }));
                continue;
            }
            (Ok(Frame::Hello(_)), Some(_)) => "duplicate Hello".into(),
            (Ok(Frame::SubmitJob(job)), Some(t)) => {
                submit(&srv, &reply, t, JobWork::Job(job));
                continue;
            }
            (Ok(Frame::SubmitSource(src)), Some(t)) => {
                submit(&srv, &reply, t, JobWork::Source(src));
                continue;
            }
            (Ok(Frame::GetMetrics), Some(_)) => {
                reply.send(&Frame::MetricsReport(srv.metrics_report()));
                continue;
            }
            (Ok(Frame::Shutdown), Some(_)) => {
                // Acknowledge a shutdown already begun: a submit that
                // lands after the ack is refused, never run.
                srv.begin_shutdown();
                reply.send(&Frame::ShutdownAck);
                return;
            }
            _ => "frame not valid in this state".into(),
        };
        srv.count_proto_error();
        reply.send(&Frame::ProtoErr(ProtoErr { message: violation }));
        return;
    }
}

/// Hand a submitted job to admission; a job it does not accept is
/// answered at once.
fn submit(srv: &ServerInner, reply: &Reply, tenant: &str, work: JobWork) {
    let deadline_ms = match &work {
        JobWork::Job(j) => j.deadline_ms,
        JobWork::Source(s) => s.deadline_ms,
    };
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let job_id = work.job_id();
    let admit = srv.admission.submit(Job {
        tenant: tenant.to_string(),
        work,
        reply: reply.clone(),
        deadline,
    });
    match admit {
        Admit::Accepted => {}
        Admit::Busy { retry_after_ms } => {
            srv.count_tenant(tenant, "jobs_busy");
            reply.send(&Frame::Busy(Busy {
                job_id,
                retry_after_ms,
            }));
        }
        Admit::Refused => {
            reply.send(&err_frame(job_id, Failure::Refused));
        }
    }
}
