//! A small blocking client for the daemon: used by the benchmark
//! package (`benchmark/`), the chaos soak test, and anyone scripting
//! against `reductiond`.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::protocol::{
    check_len, decode, encode, Frame, Hello, ProtocolError, SubmitJob, SubmitSource,
    DEFAULT_MAX_FRAME, VERSION,
};

/// Client-side failures: transport, protocol, or an unexpected frame.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Proto(ProtocolError),
    /// The server closed the connection (or a read timed out).
    Closed,
    /// Handshake got something other than `HelloAck`.
    BadHandshake,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
            ClientError::BadHandshake => write!(f, "handshake rejected"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Proto(e)
    }
}

/// A connected, handshaken client over any stream transport.
pub struct Client<S: Read + Write> {
    stream: S,
    pub max_frame: u32,
}

impl Client<TcpStream> {
    /// Connect over TCP, handshake as `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Client::handshake(stream, tenant)
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connect over a Unix socket, handshake as `tenant`.
    pub fn connect_uds(path: &std::path::Path, tenant: &str) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Client::handshake(stream, tenant)
    }
}

impl<S: Read + Write> Client<S> {
    fn handshake(stream: S, tenant: &str) -> Result<Self, ClientError> {
        let mut c = Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        };
        c.send(&Frame::Hello(Hello {
            version: VERSION,
            tenant: tenant.into(),
            max_frame: 0,
        }))?;
        match c.recv()? {
            Frame::HelloAck(ack) => {
                c.max_frame = ack.max_frame;
                Ok(c)
            }
            _ => Err(ClientError::BadHandshake),
        }
    }

    /// Send one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.stream.write_all(&encode(frame))?;
        self.stream.flush()?;
        Ok(())
    }

    /// Write raw bytes — chaos clients use this to send garbage.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Read one frame (blocking, bounded by the stream read timeout).
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        let mut header = [0u8; 4];
        read_exact_or_closed(&mut self.stream, &mut header)?;
        let len = check_len(u32::from_le_bytes(header), self.max_frame)?;
        let mut buf = vec![0u8; len];
        read_exact_or_closed(&mut self.stream, &mut buf)?;
        Ok(decode(&buf)?)
    }

    /// Submit a job and wait for its terminal frame (`JobOk`, `JobErr`,
    /// or `Busy`), skipping responses to other in-flight jobs on this
    /// connection.
    pub fn submit(&mut self, job: SubmitJob) -> Result<Frame, ClientError> {
        let id = job.job_id;
        self.send(&Frame::SubmitJob(job))?;
        loop {
            let frame = self.recv()?;
            let done = match &frame {
                Frame::JobOk(o) => o.job_id == id,
                Frame::JobErr(e) => e.job_id == id,
                Frame::Busy(b) => b.job_id == id,
                _ => false,
            };
            if done {
                return Ok(frame);
            }
        }
    }

    /// Submit a source program and wait for its terminal frame
    /// (`JobOk`, `JobErr`, or `Busy`), skipping responses to other
    /// in-flight jobs on this connection.
    pub fn submit_source(&mut self, job: SubmitSource) -> Result<Frame, ClientError> {
        let id = job.job_id;
        self.send(&Frame::SubmitSource(job))?;
        loop {
            let frame = self.recv()?;
            let done = match &frame {
                Frame::JobOk(o) => o.job_id == id,
                Frame::JobErr(e) => e.job_id == id,
                Frame::Busy(b) => b.job_id == id,
                _ => false,
            };
            if done {
                return Ok(frame);
            }
        }
    }

    /// Fetch the server's metrics dump.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Frame::GetMetrics)?;
        loop {
            if let Frame::MetricsReport(text) = self.recv()? {
                return Ok(text);
            }
        }
    }

    /// Ask the daemon to shut down; resolves on `ShutdownAck`.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        loop {
            if let Frame::ShutdownAck = self.recv()? {
                return Ok(());
            }
        }
    }
}

fn read_exact_or_closed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ClientError> {
    let mut read = 0;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => return Err(ClientError::Closed),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ClientError::Closed)
            }
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    Ok(())
}
