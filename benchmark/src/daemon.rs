//! `reductiond` as a child process of the harness, so the daemon's CPU
//! time and peak RSS are read from its own `/proc/<pid>` apart from the
//! load generator's.
//!
//! The child is this same binary run with the `daemon` subcommand: it
//! serves `ServerConfig::default()` on an ephemeral loopback port,
//! prints the address on its stdout, and exits on a `Shutdown` frame or
//! when its stdin closes (the harness died).

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use server::client::Client;
use server::{Server, ServerConfig};

/// Body of the `daemon` subcommand.
pub fn serve() -> ! {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .expect("daemon: cannot bind a loopback port");
    let addr = server.local_addr().expect("daemon: bound address");
    println!("{addr}");
    // The harness holds the write end of our stdin for as long as it
    // lives; EOF means nobody is left to shut us down.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    server.wait();
    std::process::exit(0);
}

/// A running daemon child. Dropping it kills and reaps the process, so
/// no run leaves one behind, whatever path the harness exits by.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn spawn() -> Daemon {
        let exe = std::env::current_exe().expect("harness executable path");
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the daemon child");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("daemon stdout is piped"))
            .read_line(&mut line)
            .expect("read the daemon's address");
        let addr = line.trim().parse().expect("daemon printed its address");
        Daemon { child, addr }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's own `name value` metrics dump.
    pub fn metrics(&self) -> String {
        Client::connect(self.addr, "bench-metrics")
            .and_then(|mut c| c.metrics())
            .expect("daemon metrics")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr, "bench-shutdown") {
            let _ = c.shutdown();
        }
        // Closing stdin is the second signal; kill is the last resort
        // if the drain takes longer than a job should.
        drop(self.child.stdin.take());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One counter from a daemon metrics dump (0 when absent).
pub fn metric(report: &str, key: &str) -> f64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}
