//! The wire protocol: length-prefixed, versioned frames with a
//! panic-free decoder.
//!
//! Every frame on the wire is `[len: u32 LE][type: u8][payload]`, where
//! `len` counts the type byte plus the payload. The codec never trusts
//! a length field: counts are validated against the bytes actually
//! present *before* any allocation, every read is bounds-checked, and
//! malformed input yields a typed [`ProtocolError`] — the decoder is
//! total over arbitrary byte strings (property-fuzzed in
//! `tests/protocol_fuzz.rs`).
//!
//! A connection opens with [`Hello`] / [`HelloAck`], which pins the
//! protocol version and negotiates the frame-size limit; until the
//! handshake completes the server only accepts frames up to
//! [`HELLO_MAX_FRAME`], so an unauthenticated peer cannot ask it to
//! buffer megabytes.

/// Magic bytes opening every [`Hello`] payload.
pub const MAGIC: [u8; 4] = *b"IRED";
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Default (and maximum negotiable) frame size.
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;
/// Frame-size cap before the handshake completes: a [`Hello`] is tiny.
pub const HELLO_MAX_FRAME: u32 = 4096;
/// Hard caps on job geometry, independent of frame size.
pub const MAX_ELEMENTS: u32 = 1 << 24;
pub const MAX_ITERATIONS: u32 = 1 << 24;
/// Largest DSL source a [`SubmitSource`] may carry (bytes).
pub const MAX_SOURCE: u32 = 64 << 10;
/// Most named bindings (per kind) a [`SubmitSource`] may carry.
pub const MAX_BINDINGS: u8 = 32;

/// `SubmitJob.flags` bit: fail the job instead of falling back to the
/// sequential executor when the native ladder is exhausted.
pub const FLAG_NO_FALLBACK: u8 = 1;

const T_HELLO: u8 = 0x01;
const T_HELLO_ACK: u8 = 0x02;
const T_SUBMIT_JOB: u8 = 0x03;
const T_JOB_OK: u8 = 0x04;
const T_JOB_ERR: u8 = 0x05;
const T_BUSY: u8 = 0x06;
const T_GET_METRICS: u8 = 0x07;
const T_METRICS_REPORT: u8 = 0x08;
const T_SHUTDOWN: u8 = 0x09;
const T_SHUTDOWN_ACK: u8 = 0x0A;
const T_PROTO_ERR: u8 = 0x0B;
const T_SUBMIT_SOURCE: u8 = 0x0C;

/// Why a frame (or frame header) was rejected. Every variant is a
/// protocol-level fault of the *peer*; none of them are server bugs,
/// and none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The `Hello` payload did not open with [`MAGIC`].
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion { got: u16 },
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// A declared length field exceeds the negotiated frame limit.
    Oversized { len: u32, max: u32 },
    /// A zero-length frame (no type byte).
    EmptyFrame,
    /// The payload ended before `what` could be read in full.
    Truncated { what: &'static str },
    /// A field held a value outside its legal range.
    BadValue { what: &'static str, got: u64 },
    /// Bytes left over after the last field of the frame.
    TrailingBytes { extra: usize },
    /// A string field was not valid UTF-8.
    BadUtf8 { what: &'static str },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "handshake does not start with IRED magic"),
            ProtocolError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got} (want {VERSION})")
            }
            ProtocolError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02X}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::EmptyFrame => write!(f, "zero-length frame"),
            ProtocolError::Truncated { what } => write!(f, "frame truncated reading {what}"),
            ProtocolError::BadValue { what, got } => {
                write!(f, "illegal value {got} for {what}")
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
            ProtocolError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Typed per-job failure codes carried by [`JobErr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// The inspector rejected the indirection/geometry.
    InvalidSpec = 1,
    /// Array shapes disagree with the kernel.
    Shape = 2,
    /// The strategy configuration is malformed.
    Strategy = 3,
    /// The engine cannot run this spec/backend combination.
    Unsupported = 4,
    /// A node panicked on every attempt.
    Panicked = 5,
    /// The watchdog declared the run stalled on every attempt.
    Stalled = 6,
    /// The job's deadline expired (before or during execution).
    Deadline = 7,
    /// Admission refused the job for a non-queue reason (e.g. shutdown).
    Refused = 8,
    /// A [`SubmitSource`] program failed to compile; the message is the
    /// compiler diagnostic verbatim (`line L:C: …`).
    Compile = 9,
}

impl ErrCode {
    pub fn from_u8(v: u8) -> Option<ErrCode> {
        Some(match v {
            1 => ErrCode::InvalidSpec,
            2 => ErrCode::Shape,
            3 => ErrCode::Strategy,
            4 => ErrCode::Unsupported,
            5 => ErrCode::Panicked,
            6 => ErrCode::Stalled,
            7 => ErrCode::Deadline,
            8 => ErrCode::Refused,
            9 => ErrCode::Compile,
            _ => return None,
        })
    }
}

/// Client handshake: pins the version, names the tenant, optionally
/// requests a frame limit (`0` = take the server default).
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    pub version: u16,
    pub tenant: String,
    pub max_frame: u32,
}

/// Server handshake reply: the granted limits.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloAck {
    pub version: u16,
    pub max_frame: u32,
    pub queue_capacity: u32,
    pub tenant_inflight: u16,
}

/// Deterministic per-job fault injection (testing/chaos tenants).
/// `kind`: 0 = none, 1 = lossless, 2 = lossy, 3 = chaos — the
/// [`earth_model::FaultConfig`] preset ladders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: u8,
    pub seed: u64,
}

/// One reduction job: a weighted-contribution kernel over `iterations`
/// edges into `num_refs` indirection arrays, reduced into `num_arrays`
/// component arrays of `num_elements` elements, swept `sweeps` times
/// under the given phased strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitJob {
    pub job_id: u64,
    /// Hard wall-clock budget in milliseconds; `0` = none.
    pub deadline_ms: u32,
    /// See [`FLAG_NO_FALLBACK`].
    pub flags: u8,
    pub num_elements: u32,
    pub iterations: u32,
    pub num_refs: u8,
    pub num_arrays: u8,
    pub procs: u16,
    pub k: u16,
    /// 0 = block, 1 = cyclic.
    pub dist: u8,
    pub sweeps: u16,
    pub fault: Option<FaultSpec>,
    /// One weight per iteration.
    pub weights: Vec<f64>,
    /// `num_refs` arrays of `iterations` element indices.
    pub indirection: Vec<Vec<u32>>,
}

/// A source-submitted job: a DSL program compiled server-side (through
/// the per-tenant compile cache) and executed under the given strategy
/// against the named bindings. Symbolic sizes bind through `sizes`;
/// input arrays through `f64s` / `ints`; declared f64 arrays not bound
/// start zeroed. The reply's `values` are every non-temporary declared
/// f64 array, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSource {
    pub job_id: u64,
    /// Hard wall-clock budget in milliseconds; `0` = none.
    pub deadline_ms: u32,
    pub procs: u16,
    pub k: u16,
    /// 0 = block, 1 = cyclic.
    pub dist: u8,
    pub sweeps: u16,
    /// DSL program text (at most [`MAX_SOURCE`] bytes).
    pub source: String,
    /// Symbolic size bindings (`n`, `e`, …).
    pub sizes: Vec<(String, u32)>,
    /// Named f64 input arrays.
    pub f64s: Vec<(String, Vec<f64>)>,
    /// Named int (indirection) input arrays.
    pub ints: Vec<(String, Vec<u32>)>,
}

/// Successful job result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOk {
    pub job_id: u64,
    /// Severity of service degradation: 0 = native parallel; 2 =
    /// sequential, either because admission shed the job at
    /// three-quarters queue capacity or because the recovery ladder fell
    /// back after native failures. 1 (a retired shed rung) is no longer
    /// sent but still decodes. Values are bit-identical at every level.
    pub degraded: u8,
    /// Native attempts made (0 when the job ran sequentially outright).
    pub attempts: u32,
    /// Fault-plan seed in effect at each attempt (replayability).
    pub fault_seeds: Vec<Option<u64>>,
    /// `num_arrays` arrays of `num_elements` values.
    pub values: Vec<Vec<f64>>,
}

/// Typed job failure. The daemon stays up; only this job failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobErr {
    pub job_id: u64,
    pub code: ErrCode,
    pub attempts: u32,
    pub fault_seeds: Vec<Option<u64>>,
    /// Engine error `Display` text verbatim (including the `StallDump`
    /// summary for watchdog stalls).
    pub message: String,
}

/// Admission backpressure: the queue is full, try again later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    pub job_id: u64,
    pub retry_after_ms: u32,
}

/// Connection-level protocol fault report, sent before closing.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoErr {
    pub message: String,
}

/// Every frame the protocol speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Hello(Hello),
    HelloAck(HelloAck),
    SubmitJob(SubmitJob),
    SubmitSource(SubmitSource),
    JobOk(JobOk),
    JobErr(JobErr),
    Busy(Busy),
    GetMetrics,
    MetricsReport(String),
    Shutdown,
    ShutdownAck,
    ProtoErr(ProtoErr),
}

// ---------------------------------------------------------------- encode

/// Frame writer. [`encode`] runs it twice over the same frame: first
/// with no buffer, only counting bytes, then into a buffer reserved to
/// exactly that count — one allocation per frame, arrays written in
/// bulk.
struct Enc {
    out: Option<Vec<u8>>,
    len: usize,
}

impl Enc {
    fn put(&mut self, b: &[u8]) {
        self.len += b.len();
        if let Some(out) = &mut self.out {
            out.extend_from_slice(b);
        }
    }
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    /// A whole array, `N` little-endian bytes per item, in one pass.
    fn bulk<T: Copy, const N: usize>(&mut self, vs: &[T], le: fn(T) -> [u8; N]) {
        self.len += vs.len() * N;
        if let Some(out) = &mut self.out {
            let start = out.len();
            out.resize(start + vs.len() * N, 0);
            let (dst, _) = out[start..].as_chunks_mut::<N>();
            for (d, &v) in dst.iter_mut().zip(vs) {
                *d = le(v);
            }
        }
    }
    fn seeds(&mut self, seeds: &[Option<u64>]) {
        self.u32(seeds.len() as u32);
        for s in seeds {
            match s {
                Some(v) => {
                    self.u8(1);
                    self.u64(*v);
                }
                None => self.u8(0),
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }

    fn frame(&mut self, frame: &Frame) {
        match frame {
            Frame::Hello(h) => {
                self.u8(T_HELLO);
                self.put(&MAGIC);
                self.u16(h.version);
                self.str(&h.tenant);
                self.u32(h.max_frame);
            }
            Frame::HelloAck(a) => {
                self.u8(T_HELLO_ACK);
                self.u16(a.version);
                self.u32(a.max_frame);
                self.u32(a.queue_capacity);
                self.u16(a.tenant_inflight);
            }
            Frame::SubmitJob(j) => {
                self.u8(T_SUBMIT_JOB);
                self.u64(j.job_id);
                self.u32(j.deadline_ms);
                self.u8(j.flags);
                self.u32(j.num_elements);
                self.u32(j.iterations);
                self.u8(j.num_refs);
                self.u8(j.num_arrays);
                self.u16(j.procs);
                self.u16(j.k);
                self.u8(j.dist);
                self.u16(j.sweeps);
                match j.fault {
                    Some(f) => {
                        self.u8(f.kind);
                        self.u64(f.seed);
                    }
                    None => self.u8(0),
                }
                self.bulk(&j.weights, f64::to_le_bytes);
                for arr in &j.indirection {
                    self.bulk(arr, u32::to_le_bytes);
                }
            }
            Frame::SubmitSource(s) => {
                self.u8(T_SUBMIT_SOURCE);
                self.u64(s.job_id);
                self.u32(s.deadline_ms);
                self.u16(s.procs);
                self.u16(s.k);
                self.u8(s.dist);
                self.u16(s.sweeps);
                self.str(&s.source);
                self.u8(s.sizes.len() as u8);
                for (name, v) in &s.sizes {
                    self.str(name);
                    self.u32(*v);
                }
                self.u8(s.f64s.len() as u8);
                for (name, arr) in &s.f64s {
                    self.str(name);
                    self.u32(arr.len() as u32);
                    self.bulk(arr, f64::to_le_bytes);
                }
                self.u8(s.ints.len() as u8);
                for (name, arr) in &s.ints {
                    self.str(name);
                    self.u32(arr.len() as u32);
                    self.bulk(arr, u32::to_le_bytes);
                }
            }
            Frame::JobOk(o) => {
                self.u8(T_JOB_OK);
                self.u64(o.job_id);
                self.u8(o.degraded);
                self.u32(o.attempts);
                self.seeds(&o.fault_seeds);
                self.u8(o.values.len() as u8);
                for arr in &o.values {
                    self.u32(arr.len() as u32);
                    self.bulk(arr, f64::to_le_bytes);
                }
            }
            Frame::JobErr(j) => {
                self.u8(T_JOB_ERR);
                self.u64(j.job_id);
                self.u8(j.code as u8);
                self.u32(j.attempts);
                self.seeds(&j.fault_seeds);
                self.str(&j.message);
            }
            Frame::Busy(b) => {
                self.u8(T_BUSY);
                self.u64(b.job_id);
                self.u32(b.retry_after_ms);
            }
            Frame::GetMetrics => self.u8(T_GET_METRICS),
            Frame::MetricsReport(text) => {
                self.u8(T_METRICS_REPORT);
                self.str(text);
            }
            Frame::Shutdown => self.u8(T_SHUTDOWN),
            Frame::ShutdownAck => self.u8(T_SHUTDOWN_ACK),
            Frame::ProtoErr(p) => {
                self.u8(T_PROTO_ERR);
                self.str(&p.message);
            }
        }
    }
}

/// Encode a frame, *including* the 4-byte length prefix.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut count = Enc { out: None, len: 0 };
    count.frame(frame);
    let mut e = Enc {
        out: Some(Vec::with_capacity(4 + count.len)),
        len: 0,
    };
    e.u32(count.len as u32);
    e.frame(frame);
    e.out.unwrap_or_default()
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over one frame's bytes. Every read either
/// returns the value or a [`ProtocolError::Truncated`] naming the field
/// — no slicing panics anywhere in the decode path.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        let b = self.bytes(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// `n` little-endian `f64`s, bounds-checked as one slice before the
    /// output is allocated.
    fn f64s(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, ProtocolError> {
        let (words, _) = self.bytes(n.saturating_mul(8), what)?.as_chunks::<8>();
        Ok(words.iter().map(|&w| f64::from_le_bytes(w)).collect())
    }

    /// `n` little-endian `u32`s, like [`Self::f64s`].
    fn u32s(&mut self, n: usize, what: &'static str) -> Result<Vec<u32>, ProtocolError> {
        let (words, _) = self.bytes(n.saturating_mul(4), what)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
    }

    /// A `u32` count that must be coverable by `elem_size`-byte items in
    /// the bytes that remain — checked *before* any allocation, so a
    /// hostile length field cannot trigger an OOM.
    fn count(&mut self, elem_size: usize, what: &'static str) -> Result<usize, ProtocolError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(ProtocolError::Truncated { what });
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let n = self.count(1, what)?;
        let b = self.bytes(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| ProtocolError::BadUtf8 { what })
    }

    fn seeds(&mut self) -> Result<Vec<Option<u64>>, ProtocolError> {
        let n = self.count(1, "fault seed list")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8("fault seed tag")? {
                0 => None,
                1 => Some(self.u64("fault seed")?),
                t => {
                    return Err(ProtocolError::BadValue {
                        what: "fault seed tag",
                        got: u64::from(t),
                    })
                }
            });
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Validate a frame-length prefix against the negotiated limit.
pub fn check_len(len: u32, max: u32) -> Result<usize, ProtocolError> {
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    if len > max {
        return Err(ProtocolError::Oversized { len, max });
    }
    Ok(len as usize)
}

/// Decode one frame from its bytes (type byte + payload, *without* the
/// length prefix). Total over arbitrary input: returns a typed error
/// for anything malformed, never panics, never over-allocates.
pub fn decode(frame: &[u8]) -> Result<Frame, ProtocolError> {
    let mut d = Dec::new(frame);
    let ty = d.u8("frame type").map_err(|_| ProtocolError::EmptyFrame)?;
    let frame = match ty {
        T_HELLO => {
            let magic = d.bytes(4, "magic")?;
            if magic != MAGIC {
                return Err(ProtocolError::BadMagic);
            }
            let version = d.u16("version")?;
            if version != VERSION {
                return Err(ProtocolError::UnsupportedVersion { got: version });
            }
            let tenant = d.str("tenant name")?;
            if tenant.is_empty() || tenant.len() > 128 {
                return Err(ProtocolError::BadValue {
                    what: "tenant name length",
                    got: tenant.len() as u64,
                });
            }
            let max_frame = d.u32("requested max frame")?;
            Frame::Hello(Hello {
                version,
                tenant,
                max_frame,
            })
        }
        T_HELLO_ACK => {
            let version = d.u16("version")?;
            let max_frame = d.u32("max frame")?;
            let queue_capacity = d.u32("queue capacity")?;
            let tenant_inflight = d.u16("tenant inflight cap")?;
            Frame::HelloAck(HelloAck {
                version,
                max_frame,
                queue_capacity,
                tenant_inflight,
            })
        }
        T_SUBMIT_JOB => Frame::SubmitJob(decode_submit(&mut d)?),
        T_SUBMIT_SOURCE => Frame::SubmitSource(decode_submit_source(&mut d)?),
        T_JOB_OK => {
            let job_id = d.u64("job id")?;
            let degraded = d.u8("degraded flag")?;
            let attempts = d.u32("attempts")?;
            let fault_seeds = d.seeds()?;
            // Per-array lengths: source jobs return decl arrays of
            // differing sizes.
            let values = (0..d.u8("value array count")?)
                .map(|_| {
                    let per = d.u32("values per array")? as usize;
                    d.f64s(per, "values")
                })
                .collect::<Result<_, _>>()?;
            Frame::JobOk(JobOk {
                job_id,
                degraded,
                attempts,
                fault_seeds,
                values,
            })
        }
        T_JOB_ERR => {
            let job_id = d.u64("job id")?;
            let code_raw = d.u8("error code")?;
            let code = ErrCode::from_u8(code_raw).ok_or(ProtocolError::BadValue {
                what: "error code",
                got: u64::from(code_raw),
            })?;
            let attempts = d.u32("attempts")?;
            let fault_seeds = d.seeds()?;
            let message = d.str("error message")?;
            Frame::JobErr(JobErr {
                job_id,
                code,
                attempts,
                fault_seeds,
                message,
            })
        }
        T_BUSY => Frame::Busy(Busy {
            job_id: d.u64("job id")?,
            retry_after_ms: d.u32("retry-after")?,
        }),
        T_GET_METRICS => Frame::GetMetrics,
        T_METRICS_REPORT => Frame::MetricsReport(d.str("metrics text")?),
        T_SHUTDOWN => Frame::Shutdown,
        T_SHUTDOWN_ACK => Frame::ShutdownAck,
        T_PROTO_ERR => Frame::ProtoErr(ProtoErr {
            message: d.str("protocol error message")?,
        }),
        t => return Err(ProtocolError::UnknownType(t)),
    };
    d.finish()?;
    Ok(frame)
}

fn decode_submit(d: &mut Dec<'_>) -> Result<SubmitJob, ProtocolError> {
    let job_id = d.u64("job id")?;
    let deadline_ms = d.u32("deadline")?;
    let flags = d.u8("flags")?;
    if flags & !FLAG_NO_FALLBACK != 0 {
        return Err(ProtocolError::BadValue {
            what: "flags",
            got: u64::from(flags),
        });
    }
    let num_elements = d.u32("num elements")?;
    if num_elements == 0 || num_elements > MAX_ELEMENTS {
        return Err(ProtocolError::BadValue {
            what: "num elements",
            got: u64::from(num_elements),
        });
    }
    let iterations = d.u32("iterations")?;
    if iterations == 0 || iterations > MAX_ITERATIONS {
        return Err(ProtocolError::BadValue {
            what: "iterations",
            got: u64::from(iterations),
        });
    }
    let num_refs = d.u8("num refs")?;
    if !(1..=4).contains(&num_refs) {
        return Err(ProtocolError::BadValue {
            what: "num refs",
            got: u64::from(num_refs),
        });
    }
    let num_arrays = d.u8("num arrays")?;
    if !(1..=3).contains(&num_arrays) {
        return Err(ProtocolError::BadValue {
            what: "num arrays",
            got: u64::from(num_arrays),
        });
    }
    let procs = d.u16("procs")?;
    let k = d.u16("k")?;
    let dist = d.u8("distribution")?;
    if dist > 1 {
        return Err(ProtocolError::BadValue {
            what: "distribution",
            got: u64::from(dist),
        });
    }
    let sweeps = d.u16("sweeps")?;
    let fault = match d.u8("fault kind")? {
        0 => None,
        kind @ 1..=3 => Some(FaultSpec {
            kind,
            seed: d.u64("fault seed")?,
        }),
        kind => {
            return Err(ProtocolError::BadValue {
                what: "fault kind",
                got: u64::from(kind),
            })
        }
    };
    // `iterations` weights, then `num_refs` arrays of `iterations`
    // indices; each read is bounds-checked before its allocation.
    let iters = iterations as usize;
    let weights = d.f64s(iters, "weights")?;
    let indirection = (0..num_refs)
        .map(|_| d.u32s(iters, "indirection"))
        .collect::<Result<_, _>>()?;
    Ok(SubmitJob {
        job_id,
        deadline_ms,
        flags,
        num_elements,
        iterations,
        num_refs,
        num_arrays,
        procs,
        k,
        dist,
        sweeps,
        fault,
        weights,
        indirection,
    })
}

fn decode_submit_source(d: &mut Dec<'_>) -> Result<SubmitSource, ProtocolError> {
    let job_id = d.u64("job id")?;
    let deadline_ms = d.u32("deadline")?;
    let procs = d.u16("procs")?;
    let k = d.u16("k")?;
    let dist = d.u8("distribution")?;
    if dist > 1 {
        return Err(ProtocolError::BadValue {
            what: "distribution",
            got: u64::from(dist),
        });
    }
    let sweeps = d.u16("sweeps")?;
    let source = d.str("source text")?;
    if source.is_empty() || source.len() > MAX_SOURCE as usize {
        return Err(ProtocolError::BadValue {
            what: "source text length",
            got: source.len() as u64,
        });
    }
    let name = |d: &mut Dec<'_>, what: &'static str| -> Result<String, ProtocolError> {
        let s = d.str(what)?;
        if s.is_empty() || s.len() > 64 {
            return Err(ProtocolError::BadValue {
                what,
                got: s.len() as u64,
            });
        }
        Ok(s)
    };
    let bind_count = |d: &mut Dec<'_>, what: &'static str| -> Result<usize, ProtocolError> {
        let n = d.u8(what)?;
        if n > MAX_BINDINGS {
            return Err(ProtocolError::BadValue {
                what,
                got: u64::from(n),
            });
        }
        Ok(usize::from(n))
    };

    let n_sizes = bind_count(d, "size binding count")?;
    let mut sizes = Vec::with_capacity(n_sizes);
    for _ in 0..n_sizes {
        let nm = name(d, "size binding name")?;
        sizes.push((nm, d.u32("size binding value")?));
    }
    let n_f64s = bind_count(d, "f64 binding count")?;
    let mut f64s = Vec::with_capacity(n_f64s);
    for _ in 0..n_f64s {
        let nm = name(d, "f64 binding name")?;
        let len = d.u32("f64 binding length")? as usize;
        f64s.push((nm, d.f64s(len, "f64 binding values")?));
    }
    let n_ints = bind_count(d, "int binding count")?;
    let mut ints = Vec::with_capacity(n_ints);
    for _ in 0..n_ints {
        let nm = name(d, "int binding name")?;
        let len = d.u32("int binding length")? as usize;
        ints.push((nm, d.u32s(len, "int binding values")?));
    }
    Ok(SubmitSource {
        job_id,
        deadline_ms,
        procs,
        k,
        dist,
        sweeps,
        source,
        sizes,
        f64s,
        ints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode(&f);
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let n = check_len(len, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(n, bytes.len() - 4);
        assert_eq!(decode(&bytes[4..]).unwrap(), f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello(Hello {
            version: VERSION,
            tenant: "acme".into(),
            max_frame: 0,
        }));
        roundtrip(Frame::HelloAck(HelloAck {
            version: VERSION,
            max_frame: DEFAULT_MAX_FRAME,
            queue_capacity: 64,
            tenant_inflight: 4,
        }));
        roundtrip(Frame::SubmitJob(SubmitJob {
            job_id: 7,
            deadline_ms: 250,
            flags: FLAG_NO_FALLBACK,
            num_elements: 8,
            iterations: 3,
            num_refs: 2,
            num_arrays: 1,
            procs: 2,
            k: 2,
            dist: 1,
            sweeps: 2,
            fault: Some(FaultSpec { kind: 3, seed: 42 }),
            weights: vec![1.0, -0.5, 1.25e300],
            indirection: vec![vec![0, 1, 7], vec![3, 3, 0]],
        }));
        roundtrip(Frame::SubmitSource(SubmitSource {
            job_id: 11,
            deadline_ms: 0,
            procs: 4,
            k: 2,
            dist: 1,
            sweeps: 1,
            source: "double X[n]; int A[e];\nforall (i = 0; i < e; i++) { X[A[i]] += 1.0; }".into(),
            sizes: vec![("n".into(), 8), ("e".into(), 3)],
            f64s: vec![("W".into(), vec![0.5, -1.0, 2.0])],
            ints: vec![("A".into(), vec![0, 7, 3])],
        }));
        roundtrip(Frame::JobOk(JobOk {
            job_id: 7,
            degraded: 1,
            attempts: 2,
            fault_seeds: vec![Some(42), Some(43), None],
            // Differing lengths: source jobs return decl arrays as-is.
            values: vec![vec![1.5, 2.5], vec![0.0, -1.0, 3.25]],
        }));
        roundtrip(Frame::JobErr(JobErr {
            job_id: 9,
            code: ErrCode::Stalled,
            attempts: 2,
            fault_seeds: vec![Some(1)],
            message: "run failed: stalled".into(),
        }));
        roundtrip(Frame::Busy(Busy {
            job_id: 1,
            retry_after_ms: 50,
        }));
        roundtrip(Frame::GetMetrics);
        roundtrip(Frame::MetricsReport("jobs_ok{tenant=acme} 3\n".into()));
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::ShutdownAck);
        roundtrip(Frame::ProtoErr(ProtoErr {
            message: "oversized".into(),
        }));
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // A SubmitJob header claiming 2^24 iterations with a 40-byte
        // payload must fail with Truncated, not attempt the alloc.
        let mut bytes = encode(&Frame::SubmitJob(SubmitJob {
            job_id: 1,
            deadline_ms: 0,
            flags: 0,
            num_elements: 8,
            iterations: 2,
            num_refs: 2,
            num_arrays: 1,
            procs: 1,
            k: 1,
            dist: 0,
            sweeps: 1,
            fault: None,
            weights: vec![1.0, 2.0],
            indirection: vec![vec![0, 1], vec![2, 3]],
        }));
        // iterations field lives at offset 4(len)+1(type)+8+4+1+4 = 22.
        bytes[22..26].copy_from_slice(&MAX_ITERATIONS.to_le_bytes());
        assert_eq!(
            decode(&bytes[4..]),
            Err(ProtocolError::Truncated { what: "weights" })
        );
    }

    #[test]
    fn truncations_and_trailers_are_typed() {
        let bytes = encode(&Frame::Busy(Busy {
            job_id: 1,
            retry_after_ms: 5,
        }));
        let payload = &bytes[4..];
        for cut in 0..payload.len() {
            let r = decode(&payload[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
        let mut extra = payload.to_vec();
        extra.push(0xFF);
        assert_eq!(
            decode(&extra),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn frame_length_limits() {
        assert_eq!(check_len(0, 100), Err(ProtocolError::EmptyFrame));
        assert_eq!(
            check_len(101, 100),
            Err(ProtocolError::Oversized { len: 101, max: 100 })
        );
        assert_eq!(check_len(100, 100), Ok(100));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut hello = encode(&Frame::Hello(Hello {
            version: VERSION,
            tenant: "t".into(),
            max_frame: 0,
        }));
        let payload_start = 4;
        hello[payload_start + 1] = b'X';
        assert_eq!(decode(&hello[4..]), Err(ProtocolError::BadMagic));

        let mut hello2 = encode(&Frame::Hello(Hello {
            version: VERSION,
            tenant: "t".into(),
            max_frame: 0,
        }));
        hello2[payload_start + 5] = 9; // version LE low byte
        assert_eq!(
            decode(&hello2[4..]),
            Err(ProtocolError::UnsupportedVersion { got: 9 })
        );
    }
}
