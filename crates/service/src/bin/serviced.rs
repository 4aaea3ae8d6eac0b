//! `serviced` — the prediction daemon.
//!
//! Default mode binds the HTTP shell and serves until killed:
//!
//! ```text
//! serviced --host 127.0.0.1 --port 8017 --seed 42
//! curl 'http://127.0.0.1:8017/predict?platform=2&n=1600&procs=4'
//! ```
//!
//! `--smoke N` instead boots on an ephemeral loopback port, replays `N`
//! seeded requests over real sockets, requires every one to come back
//! `200 OK`, prints a latency report, and exits non-zero on any error —
//! the CI `service-smoke` job runs exactly this.

use prodpred_core::supervisor::RetryPolicy;
use prodpred_service::replay::{percentile_us, request_path, ReplayReport};
use prodpred_service::{
    serve, ResilienceConfig, ServiceConfig, ServiceCore, ServiceStats, ShellConfig,
};
use prodpred_simgrid::faults::FaultConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    host: String,
    port: u16,
    seed: u64,
    workers: usize,
    tick_millis: u64,
    smoke: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 8017,
        seed: 42,
        workers: 0,
        tick_millis: 250,
        smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--host" => args.host = value("--host")?,
            "--port" => args.port = parse(&value("--port")?, "--port")?,
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--workers" => args.workers = parse(&value("--workers")?, "--workers")?,
            "--tick-ms" => args.tick_millis = parse(&value("--tick-ms")?, "--tick-ms")?,
            "--smoke" => args.smoke = Some(parse(&value("--smoke")?, "--smoke")?),
            "--help" | "-h" => {
                println!(
                    "serviced [--host H] [--port P] [--seed S] [--workers W] [--tick-ms T] [--smoke N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value for {flag}: {s}"))
}

/// One blocking HTTP GET over a fresh connection; returns `(status,
/// body)`.
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn smoke(core: Arc<ServiceCore>, args: &Args, requests: u64) -> Result<ReplayReport, String> {
    let shell = ShellConfig {
        addr: format!("{}:0", args.host),
        workers: args.workers,
        tick_millis: args.tick_millis,
    };
    let mut handle = serve(core.clone(), &shell).map_err(|e| format!("bind failed: {e}"))?;
    let addr = handle.addr();
    eprintln!("smoke: daemon on {addr}, replaying {requests} requests");

    let epoch_before = core.epoch();
    let mut latencies = Vec::with_capacity(requests as usize);
    let started = Instant::now();
    let mut errors = 0u64;
    for i in 0..requests {
        let target = request_path(args.seed, i);
        let t0 = Instant::now();
        match get(addr, &target) {
            Ok((200, _)) => latencies.push(t0.elapsed().as_micros() as u64),
            Ok((status, body)) => {
                errors += 1;
                eprintln!("smoke: request {i} {target} -> {status}: {body}");
            }
            Err(e) => {
                errors += 1;
                eprintln!("smoke: request {i} {target} -> {e}");
            }
        }
    }
    let elapsed_us = started.elapsed().as_micros() as u64;
    let stats = core.stats();
    let hits_denominator = (stats.cache.hits + stats.cache.misses).max(1);
    let report = ReplayReport {
        seed: args.seed,
        requests,
        threads: 1,
        ticks: core.epoch() - epoch_before,
        elapsed_us,
        qps: requests as f64 / (elapsed_us.max(1) as f64 / 1e6),
        p50_us: percentile_us(&mut latencies.clone(), 0.50),
        p99_us: percentile_us(&mut latencies, 0.99),
        max_us: latencies.iter().copied().max().unwrap_or(0),
        cache_hit_rate: stats.cache.hits as f64 / hits_denominator as f64,
        errors,
    };
    handle.shutdown();
    if errors > 0 {
        return Err(format!("{errors} of {requests} requests failed"));
    }
    Ok(report)
}

/// Second smoke phase: boot a core whose sensors black out permanently
/// right after warmup (ingest fails every tick, the snapshot just ages)
/// and drive it over a real socket until the degraded path shows —
/// responses marked `degraded: true` and failure counters visible in
/// `/metrics` — so CI's socket job covers non-Healthy serving states.
fn degraded_smoke(args: &Args) -> Result<(), String> {
    let mut fault = FaultConfig::none(args.seed);
    fault.blackouts.push((600.0, f64::MAX)); // from warmup, forever
    let core = Arc::new(ServiceCore::new(ServiceConfig {
        seed: args.seed,
        fault: Some(fault),
        resilience: ResilienceConfig {
            // Keep serving (widened) forever: no retries to ride the
            // permanent blackout, no breaker/watchdog escalation, and an
            // unbounded stale band so the state settles Degraded→Stale
            // instead of 503ing.
            retry: RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            watchdog_ticks: u64::MAX,
            stale_age_ticks: u64::MAX,
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    }));
    let shell = ShellConfig {
        addr: format!("{}:0", args.host),
        workers: args.workers,
        // Tick fast so the snapshot ages past the healthy band quickly.
        tick_millis: 25,
    };
    let mut handle = serve(core, &shell).map_err(|e| format!("bind failed: {e}"))?;
    let addr = handle.addr();
    eprintln!("smoke: degraded-path daemon on {addr}");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, body) = get(addr, "/predict?platform=1&n=600&procs=2")
            .map_err(|e| format!("degraded probe failed: {e}"))?;
        if status == 200 && body.contains("\"degraded\":true") {
            break;
        }
        if Instant::now() > deadline {
            handle.shutdown();
            return Err(format!(
                "no degraded response within 20s (last: {status} {body})"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, body) = get(addr, "/metrics").map_err(|e| format!("metrics probe failed: {e}"))?;
    handle.shutdown();
    if status != 200 {
        return Err(format!("metrics -> {status}: {body}"));
    }
    let stats: ServiceStats =
        serde_json::from_str(&body).map_err(|e| format!("bad metrics body: {e}"))?;
    if stats.ingest.failures == 0 {
        return Err(format!("expected ingest failures in metrics: {body}"));
    }
    if stats.degraded_served == 0 {
        return Err(format!("expected degraded_served > 0 in metrics: {body}"));
    }
    eprintln!(
        "smoke: degraded path verified ({} failed ticks, {} degraded answers)",
        stats.ingest.failures, stats.degraded_served
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("serviced: {why}");
            return ExitCode::FAILURE;
        }
    };
    let core = Arc::new(ServiceCore::new(ServiceConfig {
        seed: args.seed,
        ..ServiceConfig::default()
    }));

    if let Some(requests) = args.smoke {
        let report = match smoke(core, &args, requests) {
            Ok(report) => report,
            Err(why) => {
                eprintln!("serviced: smoke failed: {why}");
                return ExitCode::FAILURE;
            }
        };
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("serviced: cannot render report: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(why) = degraded_smoke(&args) {
            eprintln!("serviced: degraded-path smoke failed: {why}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let shell = ShellConfig {
        addr: format!("{}:{}", args.host, args.port),
        workers: args.workers,
        tick_millis: args.tick_millis,
    };
    match serve(core, &shell) {
        Ok(handle) => {
            eprintln!("serviced: listening on {}", handle.addr());
            // Serve until killed (CI wraps this in `timeout`).
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("serviced: {e}");
            ExitCode::FAILURE
        }
    }
}
