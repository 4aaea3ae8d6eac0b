//! The `std::net` veneer: the only module in the workspace (enforced by
//! tidy lint PP008) that touches real sockets.
//!
//! Everything interesting — routing, parsing, prediction, caching,
//! epoch publication — lives in the pure [`crate::core`] and
//! [`crate::http`] layers and is tested without a socket. This module
//! only: accepts connections, reads a request head, calls
//! [`crate::http::handle`], and writes the rendered bytes back. One
//! background ingest thread ticks the core on a fixed cadence; a small
//! worker pool (sized like [`prodpred_pool::num_threads`]) serves
//! connections, demonstrating that concurrent readers never contend
//! with the ingest writer.

use crate::core::ServiceCore;
use crate::http;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
// tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shell tunables.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Connection-serving worker threads (0 means
    /// [`prodpred_pool::num_threads`]).
    pub workers: usize,
    /// Wall-clock milliseconds between ingest ticks (each tick advances
    /// the simulation by the core's `publish_interval`).
    pub tick_millis: u64,
}

impl Default for ShellConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            tick_millis: 250,
        }
    }
}

/// A running daemon: its bound address plus a shutdown switch.
pub struct ShellHandle {
    addr: SocketAddr,
    // tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ShellHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, the ingest thread, and the workers, then
    /// joins them. Idempotent.
    pub fn shutdown(&mut self) {
        // tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
        self.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ShellHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maximum request-head bytes read before giving up on a client.
const MAX_HEAD: usize = 8 * 1024;

/// Serves one accepted connection: read the head, route, respond.
fn serve_connection(core: &ServiceCore, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    let response = loop {
        match stream.read(&mut buf) {
            Ok(0) => break None,
            Ok(k) => {
                head.extend_from_slice(&buf[..k]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    let text = String::from_utf8_lossy(&head);
                    break Some(match http::request_target(&text) {
                        Ok(target) => http::handle(core, target),
                        Err(error) => error,
                    });
                }
                if head.len() > MAX_HEAD {
                    break None;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break None, // timeout or reset: drop the client
        }
    };
    if let Some(response) = response {
        let _ = stream.write_all(response.render().as_bytes());
        let _ = stream.flush();
    }
}

/// Boots the daemon: binds `config.addr`, spawns the ingest ticker and
/// the worker pool, and returns a handle owning all of it. The returned
/// handle's [`ShellHandle::shutdown`] (or drop) stops everything.
///
/// # Errors
///
/// Propagates the listener `bind` failure (address in use, permission).
pub fn serve(core: Arc<ServiceCore>, config: &ShellConfig) -> std::io::Result<ShellHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = if config.workers == 0 {
        prodpred_pool::num_threads()
    } else {
        config.workers
    };

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut threads = Vec::with_capacity(workers + 2);

    for _ in 0..workers {
        let core = Arc::clone(&core);
        let rx = Arc::clone(&rx);
        threads.push(std::thread::spawn(move || loop {
            let next = rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv_timeout(Duration::from_millis(100));
            match next {
                Ok(stream) => serve_connection(&core, stream),
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }));
    }

    {
        let core = Arc::clone(&core);
        let shutdown = Arc::clone(&shutdown);
        let tick = Duration::from_millis(config.tick_millis.max(1));
        threads.push(std::thread::spawn(move || {
            // tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
            while !shutdown.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                core.ingest_tick();
            }
        }));
    }

    {
        let shutdown = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            // tidy:allow(PP010): shutdown latch only — a monotone boolean, no data is published through it
            while !shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if tx.send(stream).is_err() {
                            return; // workers gone; nothing to serve with
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            // Dropping `tx` here disconnects the channel; workers drain
            // what was accepted and exit on Disconnected.
        }));
    }

    Ok(ShellHandle {
        addr,
        shutdown,
        threads,
    })
}

// Worker threads exit via channel disconnect rather than the shutdown
// flag: the accept thread owns the sender and drops it when told to
// stop, so no request accepted before shutdown is ever dropped.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{PredictResponse, ServiceConfig};
    use std::time::Instant;

    /// One blocking GET over a fresh connection, read to the server's
    /// close: `(status, head, body)`.
    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, head.to_string(), body.to_string())
    }

    /// The value of header `name` in a response head.
    fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
        head.lines()
            .filter_map(|line| line.split_once(": "))
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    #[test]
    fn serves_over_loopback_and_shuts_down_within_a_tick() {
        let core = Arc::new(ServiceCore::new(ServiceConfig {
            seed: 7,
            horizon: 2000.0,
            warmup: 300.0,
            ..ServiceConfig::default()
        }));
        let config = ShellConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            tick_millis: 50,
        };
        let mut handle = serve(core, &config).unwrap();
        let addr = handle.addr();
        assert!(addr.ip().is_loopback() && addr.port() != 0, "{addr}");

        let (status, head, body) = get(addr, "/predict?platform=2&n=1600&procs=4");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            header(&head, "Content-Length").map(str::parse::<usize>),
            Some(Ok(body.len())),
            "{head}"
        );
        let answer: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!((answer.platform, answer.n, answer.procs), (2, 1600, 4));
        assert!(
            answer.lo <= answer.mean && answer.mean <= answer.hi,
            "{} <= {} <= {}",
            answer.lo,
            answer.mean,
            answer.hi
        );

        let (status, _, body) = get(addr, "/nope");
        assert_eq!(status, 404, "{body}");

        // The ingest thread sleeps one tick between checks of the latch
        // and the workers poll their channel every 100 ms, so every join
        // returns within a tick and a second.
        let started = Instant::now();
        handle.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(config.tick_millis + 1000),
            "shutdown took {took:?}"
        );
        assert!(handle.threads.is_empty(), "every thread joined");
    }
}
