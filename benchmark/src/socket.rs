//! `socket_replay`: real loopback HTTP against `shell::serve` (two workers,
//! the shell's own 250 ms ticker), one connection per request as the shell
//! requires, keys uniform over the 192-key space.
//!
//! The only workload that includes `service.shell`, and the only one where
//! queueing is visible. Untraced it is a closed loop of `clients`
//! connections; traced it adds the client-side spans, an open loop at 400
//! requests/s and a rate ladder.

use crate::common::{measured_setup, peak_rss_mb, probe_ns, report_closed, Args, Times};
use crate::gen::{hot_keys, Key};
use crate::handle::{HotSource, KeySource};
use crate::load::{closed_loop, open_loop, Client, Open, Phase};
use crate::metrics::Outcome;
use crate::shadow::answer_bits;
use crate::stats::{highest_supported, Hist};
use prodpred_service::{
    http, serve, PredictResponse, ServiceConfig, ServiceCore, ShellConfig, ShellHandle,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tail reported. Two clients on two cores share them with the shell's
/// workers, accept loop and ticker, and a request that meets an ingest tick
/// waits out extra 2 ms polls: p99 sits on that cliff and read anywhere
/// from 3 to 13 ms between runs of the same code, so the end-to-end tail is
/// p95 and p99 is printed beside it.
const TAIL: f64 = 0.95;
/// Workers the shell serves with.
const WORKERS: usize = 2;
/// Every socket's connect, read and write deadline, so no phase can hang.
const DEADLINE: Duration = Duration::from_secs(2);
/// Loopback addresses the clients rotate over, so connection churn does not
/// exhaust the ports of one address pair.
const DESTINATIONS: u8 = 16;
/// Due-time tail a ladder rung must stay under to be inside the limit.
const LIMIT_MS: f64 = 10.0;
/// The ladder's rates, requests/s; every rung always runs.
const LADDER: [f64; 6] = [250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0];

struct Served {
    core: Arc<ServiceCore>,
    keys: Vec<Key>,
    shell: ShellHandle,
}

fn setup(seed: u64) -> Served {
    let core = Arc::new(ServiceCore::new(ServiceConfig {
        seed,
        ..ServiceConfig::default()
    }));
    let keys = hot_keys(seed);
    for k in &keys {
        std::hint::black_box(http::handle(&core, &k.target));
    }
    let shell = serve(
        Arc::clone(&core),
        &ShellConfig {
            addr: "0.0.0.0:0".to_string(),
            workers: WORKERS,
            tick_millis: 250,
        },
    )
    .expect("loopback bind");
    Served { core, keys, shell }
}

/// Why a request failed, for the error counts.
#[derive(Default)]
struct Errors {
    addr_not_available: u64,
    timeouts: u64,
    other_io: u64,
    bad_status: u64,
    bad_payload: u64,
}

impl Errors {
    fn connection(&self) -> u64 {
        self.addr_not_available + self.timeouts + self.other_io
    }
}

/// A received response, or the I/O error that stopped it.
type Reply = Result<Vec<u8>, std::io::Error>;

/// One connection slot: connects, sends one request, reads to EOF.
struct SocketClient<'a> {
    core: &'a ServiceCore,
    port: u16,
    source: HotSource<'a>,
    sent: u64,
    lane: u64,
    errors: Errors,
    /// An answer whose epoch had moved on before the oracle could look.
    epoch_races: u64,
    connect: Hist,
    first_byte: Hist,
}

impl SocketClient<'_> {
    fn exchange(&mut self, key: &Key) -> Reply {
        // Lanes start on different addresses and walk all sixteen.
        let host = 1 + ((self.sent + self.lane * 8) % u64::from(DESTINATIONS)) as u8;
        self.sent += 1;
        let addr = SocketAddr::from((Ipv4Addr::new(127, 0, 0, host), self.port));
        let started = Instant::now();
        let mut stream = TcpStream::connect_timeout(&addr, DEADLINE)?;
        self.connect.record(started.elapsed().as_nanos() as u64);
        stream.set_read_timeout(Some(DEADLINE))?;
        stream.set_write_timeout(Some(DEADLINE))?;
        stream.set_nodelay(true)?;
        stream.write_all(
            format!(
                "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
                key.target
            )
            .as_bytes(),
        )?;
        let sent = Instant::now();
        let mut reply = Vec::with_capacity(512);
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Ok(reply),
                Ok(k) => {
                    if reply.is_empty() {
                        self.first_byte.record(sent.elapsed().as_nanos() as u64);
                    }
                    reply.extend_from_slice(&buf[..k]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Status 200 and a body that parses to the fields `query_uncached`
    /// gives on the same epoch. The shell's ticker publishes every 250 ms,
    /// so the epoch can move between the answer and the look; then only
    /// the echoed fields are checked.
    fn payload_ok(&mut self, key: &Key, reply: &[u8]) -> bool {
        let text = String::from_utf8_lossy(reply);
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            self.errors.bad_status += 1;
            return false;
        };
        if !head.starts_with("HTTP/1.1 200 OK\r\n") {
            self.errors.bad_status += 1;
            return false;
        }
        let parsed = serde_json::from_str::<PredictResponse>(body).ok();
        let reference = self.core.query_uncached(&key.request).ok();
        let ok = match (parsed, reference) {
            (Some(p), Some(r)) => {
                let echoed = (p.platform, p.n, p.procs)
                    == (key.request.platform, key.request.n, key.request.procs);
                if p.epoch != r.epoch {
                    self.epoch_races += 1;
                    echoed
                } else {
                    echoed && answer_bits(&p) == answer_bits(&r)
                }
            }
            _ => false,
        };
        if !ok {
            self.errors.bad_payload += 1;
        }
        ok
    }
}

impl Client for SocketClient<'_> {
    type Input = Key;
    type Output = Reply;

    fn refill(&mut self, from: u64, batch: &mut Vec<Key>) {
        self.source.keys(from, batch);
    }

    fn call(&mut self, key: &Key) -> Reply {
        self.exchange(key)
    }

    fn check(&mut self, key: &Key, reply: &Reply, _deep: bool) -> bool {
        match reply {
            Ok(bytes) => self.payload_ok(key, bytes),
            Err(e) => {
                match e.kind() {
                    ErrorKind::AddrNotAvailable => self.errors.addr_not_available += 1,
                    ErrorKind::TimedOut | ErrorKind::WouldBlock => self.errors.timeouts += 1,
                    _ => self.errors.other_io += 1,
                }
                false
            }
        }
    }
}

fn clients<'a>(served: &'a Served, args: &Args, phase: u64) -> Vec<SocketClient<'a>> {
    (0..args.clients as u64)
        .map(|lane| SocketClient {
            core: &served.core,
            port: served.shell.addr().port(),
            source: HotSource::new(&served.keys, args.seed, phase * 16 + lane),
            sent: 0,
            lane,
            errors: Errors::default(),
            epoch_races: 0,
            connect: Hist::default(),
            first_byte: Hist::default(),
        })
        .collect()
}

/// Totals the clients' error counts and client-side timings.
fn tally(out: &mut Outcome, what: &str, clients: &[SocketClient<'_>]) -> (Hist, Hist, u64) {
    let (mut connect, mut first_byte) = (Hist::default(), Hist::default());
    let mut total = Errors::default();
    let mut races = 0;
    for c in clients {
        connect.merge(&c.connect);
        first_byte.merge(&c.first_byte);
        total.addr_not_available += c.errors.addr_not_available;
        total.timeouts += c.errors.timeouts;
        total.other_io += c.errors.other_io;
        total.bad_status += c.errors.bad_status;
        total.bad_payload += c.errors.bad_payload;
        races += c.epoch_races;
    }
    println!(
        "  {what}: errors EADDRNOTAVAIL={} timeouts={} other_io={} bad_status={} bad_payload={}; \
         epoch moved before the oracle looked: {races}; connect_p50={:.1}us first_byte_p50={:.1}us",
        total.addr_not_available,
        total.timeouts,
        total.other_io,
        total.bad_status,
        total.bad_payload,
        connect.p50() / 1e3,
        first_byte.p50() / 1e3,
    );
    if total.bad_payload > 0 {
        out.violation(format!(
            "{what}: {} answers differ from query_uncached",
            total.bad_payload
        ));
    }
    (connect, first_byte, total.connection())
}

pub fn run(args: &Args, out: &mut Outcome) {
    let served = measured_setup(out, || setup(args.seed));
    println!(
        "shell: {} workers, tick 250 ms, bound {}, clients rotate 127.0.0.1-127.0.0.{DESTINATIONS}",
        WORKERS,
        served.shell.addr()
    );
    if args.trace {
        traced(args, out, &served);
    } else {
        let phase = Phase::of(args.seconds, 1);
        let (closed, back) = closed_loop(&phase, clients(&served, args, 0));
        report_closed(out, "socket_replay", &closed, TAIL, Times::Raw);
        tally(out, "closed loop", &back);
        out.put("peak_rss_mb", peak_rss_mb());
    }
    drop(served);
}

fn print_open(open: &Open, tail: Option<f64>) {
    println!(
        "phase open loop {:.0}/s: planned={:.3}s actual={:.3}s gen.sent={} failed={} \
         gen.backlog_at_end={} gen.late_us_p99={:.1} due-time p50={:.1}us tail={}",
        open.rate,
        open.planned_s,
        open.actual_s,
        open.sent,
        open.failed,
        open.backlog_at_end,
        open.late.percentile(0.99).unwrap_or(0.0) / 1e3,
        open.latency.p50() / 1e3,
        match tail {
            Some(p) => format!(
                "p{:.0}={:.1}us",
                p * 100.0,
                open.latency.percentile(p).unwrap_or(0.0) / 1e3
            ),
            None => "unsupported".to_string(),
        },
    );
}

/// An open-loop phase is void when the generator itself ran late: its
/// idle-sender lateness p99 above 1 ms. Latency runs from the due instant,
/// so lateness can only overstate it: a void phase is printed as such and
/// its figures are upper bounds, and a ladder rung that stays inside the
/// limit all the same still counts. On two cores the shell's ticker takes
/// one of them for several milliseconds four times a second, which alone
/// makes a sender late that often, so a void phase does not fail the run.
fn generator_on_time(open: &Open) -> bool {
    open.late.percentile(0.99).is_none_or(|late| late <= 1e6)
}

fn traced(args: &Args, out: &mut Outcome, served: &Served) {
    let quarter = args.seconds / 4.0;
    // Closed loop with the client-side spans: connect, first byte, total.
    let (closed, back) = closed_loop(&Phase::of(quarter, 1), clients(served, args, 1));
    report_closed(out, "socket closed loop", &closed, TAIL, Times::Raw);
    let (connect, first_byte, mut conn_errors) = tally(out, "closed loop", &back);
    let (socket_p50, _) = closed.percentile(0.5);
    // The same targets in process, on the same core: what is left of the
    // socket latency is the shell's.
    let key = &served.keys[0];
    let in_process = probe_ns(16, 400, || http::handle(&served.core, &key.target).render());
    out.put("shell.self_us_p50", (socket_p50 - in_process) / 1e3);
    out.put("shell.connect_us_p50", connect.p50() / 1e3);
    out.put("shell.first_byte_us_p50", first_byte.p50() / 1e3);
    println!(
        "  socket p50 {:.1} us - in-process handle+render p50 {:.3} us = shell.self_us_p50 {:.1}",
        socket_p50 / 1e3,
        in_process / 1e3,
        (socket_p50 - in_process) / 1e3
    );

    // Open loop at 400 requests/s, timed from each request's due instant.
    let (open, back) = open_loop(
        400.0,
        (args.seconds * 0.3).max(2.6),
        clients(served, args, 2),
    );
    print_open(&open, Some(0.99));
    conn_errors += tally(out, "open loop 400/s", &back).2;
    out.attempted += open.sent;
    out.failed += open.failed;
    out.put("open_latency_p50_us", open.latency.p50() / 1e3);
    out.put(
        "open_latency_p99_us",
        open.latency.percentile(0.99).unwrap_or(0.0) / 1e3,
    );
    out.put(
        "gen.late_us_p99",
        open.late.percentile(0.99).unwrap_or(0.0) / 1e3,
    );
    out.put("gen.sent", open.sent as f64);
    out.put("gen.backlog_at_end", open.backlog_at_end as f64);
    if !generator_on_time(&open) {
        println!(
            "  open loop 400/s void: generator lateness p99 above 1 ms, latencies are upper bounds"
        );
    }

    // The ladder. A rung is inside the limit when its due-time tail (the
    // highest percentile its sample supports) is at most 10 ms, nothing
    // failed, and no backlog is left at its end.
    let mut max_rate = 0.0;
    for (rung, &rate) in LADDER.iter().enumerate() {
        let (open, back) = open_loop(
            rate,
            args.seconds * 0.15,
            clients(served, args, 3 + rung as u64),
        );
        let tail = highest_supported(open.latency.count());
        print_open(&open, tail);
        conn_errors += tally(out, "rung", &back).2;
        out.attempted += open.sent;
        out.failed += open.failed;
        let tail_ms = tail
            .and_then(|p| open.latency.percentile(p))
            .map(|ns| ns / 1e6);
        if tail_ms.is_some_and(|ms| ms <= LIMIT_MS) && open.failed == 0 && open.backlog_at_end == 0
        {
            max_rate = rate;
        } else if !generator_on_time(&open) {
            println!("  rung {rate:.0}/s void: generator lateness p99 above 1 ms, the miss may be its own");
        }
    }
    // The utilisation bound: the shell cannot serve faster than its workers
    // divided by the mean in-process service time.
    let ceiling = WORKERS as f64 / (in_process / 1e9);
    println!(
        "max_rate_in_limit_rps={max_rate:.0} (ceiling workers / service time = {ceiling:.0}/s)"
    );
    if max_rate > ceiling {
        out.violation(format!(
            "max_rate_in_limit_rps {max_rate} exceeds the utilisation bound {ceiling:.0}"
        ));
    }
    out.put("max_rate_in_limit_rps", max_rate);
    out.put("shell.conn_errors", conn_errors as f64);
}
