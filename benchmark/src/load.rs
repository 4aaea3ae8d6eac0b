//! The load generators: a closed loop of `clients` threads and an open
//! loop that sends on a schedule.

use crate::calib::{compute_factor, Compute};
use crate::gen::{due_before, due_ns, turn, Turn};
use crate::stats::{percentile_of, Hist, Windowed};
use std::time::{Duration, Instant};

/// One client thread's view of the system under test.
pub trait Client: Send {
    type Input;
    type Output;

    /// Generates the next batch of inputs, starting at this client's
    /// request number `from`. Runs outside every timed interval.
    fn refill(&mut self, from: u64, batch: &mut Vec<Self::Input>);

    /// The operation. Only this is timed.
    fn call(&mut self, input: &Self::Input) -> Self::Output;

    /// Whether the operation succeeded with the right payload. `deep`
    /// marks the operations whose payload is checked against the oracle
    /// in full; a deep check's own time is kept out of the next latency.
    fn check(&mut self, input: &Self::Input, output: &Self::Output, deep: bool) -> bool;
}

/// Inputs generated per refill.
pub const BATCH: usize = 256;

pub struct Phase {
    /// Discarded lead-in before the measured interval.
    pub warmup: Duration,
    pub measured: Duration,
    /// One operation in this many gets the full oracle check.
    pub deep_every: u64,
}

impl Phase {
    /// A measured interval of `seconds` behind a warm-up of a tenth of it.
    pub fn of(seconds: f64, deep_every: u64) -> Self {
        Self {
            warmup: Duration::from_secs_f64(seconds / 10.0),
            measured: Duration::from_secs_f64(seconds),
            deep_every,
        }
    }
}

/// What a closed-loop phase measured (warm-up excluded).
pub struct Closed {
    /// One per client.
    pub latency: Vec<Windowed>,
    /// The machine's speed factor over the phase (see `calib`), from the
    /// compute kernel timed on every client thread between batches.
    pub speed: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Planned and actual length of the measured interval.
    pub planned_s: f64,
    pub actual_s: f64,
    pub clients: usize,
}

impl Closed {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn throughput(&self) -> f64 {
        self.succeeded() as f64 / self.actual_s
    }

    /// Every client's latencies in one histogram.
    pub fn all(&self) -> Hist {
        let mut all = Hist::default();
        self.latency.iter().for_each(|w| all.merge(&w.total()));
        all
    }

    /// Percentile `p` in ns, and whether the sample supports it.
    pub fn percentile(&self, p: f64) -> (f64, bool) {
        percentile_of(&self.latency, p)
    }

    /// Little's law: throughput × mean latency, which in a closed loop
    /// must come out at the number of clients.
    pub fn littles_clients(&self) -> f64 {
        let all = self.all();
        if all.count() == 0 {
            return 0.0;
        }
        self.throughput() * (all.sum_ns() as f64 / all.count() as f64) / 1e9
    }
}

/// Runs one thread per client, each sending its next request only after
/// the previous one completed. A latency runs from the end of the previous
/// operation to the end of this one, so the clients' time is fully
/// accounted for; batch generation and deep checks are excluded.
pub fn closed_loop<C: Client>(phase: &Phase, clients: Vec<C>) -> (Closed, Vec<C>) {
    let threads = clients.len();
    let origin = Instant::now();
    let warm_ns = phase.warmup.as_nanos() as u64;
    let end_ns = warm_ns + phase.measured.as_nanos() as u64;
    let per_thread: Vec<(Windowed, Compute, u64, u64, u64, C)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                s.spawn(move || {
                    let mut latency = Windowed::new(end_ns - warm_ns);
                    let mut speed = Compute::default();
                    let (mut attempted, mut failed, mut sent) = (0u64, 0u64, 0u64);
                    let mut batch = Vec::with_capacity(BATCH);
                    let last_ns = 'phase: loop {
                        speed.tick();
                        batch.clear();
                        client.refill(sent, &mut batch);
                        let mut prev = origin.elapsed().as_nanos() as u64;
                        for input in &batch {
                            let output = client.call(input);
                            let now = origin.elapsed().as_nanos() as u64;
                            let deep = sent % phase.deep_every == 0;
                            let ok = client.check(input, &output, deep);
                            sent += 1;
                            if prev >= warm_ns {
                                attempted += 1;
                                if ok {
                                    latency.record(now.min(end_ns - 1) - warm_ns, now - prev);
                                } else {
                                    failed += 1;
                                }
                            }
                            if now >= end_ns {
                                break 'phase now;
                            }
                            prev = if deep {
                                origin.elapsed().as_nanos() as u64
                            } else {
                                now
                            };
                        }
                    };
                    (latency, speed, attempted, failed, last_ns, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut closed = Closed {
        latency: Vec::with_capacity(threads),
        speed: 1.0,
        attempted: 0,
        failed: 0,
        planned_s: phase.measured.as_secs_f64(),
        actual_s: 0.0,
        clients: threads,
    };
    let mut back = Vec::with_capacity(threads);
    let mut last_ns = end_ns;
    let mut kernel_ns = Vec::new();
    for (latency, speed, attempted, failed, last, client) in per_thread {
        closed.latency.push(latency);
        kernel_ns.extend_from_slice(speed.samples());
        closed.attempted += attempted;
        closed.failed += failed;
        last_ns = last_ns.max(last);
        back.push(client);
    }
    closed.actual_s = (last_ns - warm_ns) as f64 / 1e9;
    closed.speed = compute_factor(&kernel_ns);
    (closed, back)
}

/// What an open-loop phase measured.
pub struct Open {
    pub rate: f64,
    /// Latency from the instant each request was due.
    pub latency: Hist,
    /// Generator lateness: how long after its due time an idle sender got
    /// a request under way.
    pub late: Hist,
    pub sent: u64,
    pub failed: u64,
    /// Requests that fell due inside the phase and were never sent.
    pub backlog_at_end: u64,
    pub planned_s: f64,
    pub actual_s: f64,
}

/// Sleeps most of the way to `due_ns` after `origin`, then spins.
fn wait_until(origin: Instant, due_ns: u64) {
    const SPIN_NS: u64 = 300_000;
    loop {
        let now = origin.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends at `rate` requests/s for `seconds`, request `i` due at `i / rate`,
/// shared round-robin between the clients' connections. A sender still
/// busy when its next request falls due sends it as soon as it is free and
/// the wait counts in that request's latency.
pub fn open_loop<C: Client>(rate: f64, seconds: f64, clients: Vec<C>) -> (Open, Vec<C>) {
    let origin = Instant::now();
    let end_ns = (seconds * 1e9) as u64;
    let lanes = clients.len() as u64;
    let per_thread: Vec<(Hist, Hist, u64, u64, u64, C)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                s.spawn(move || {
                    let (mut latency, mut late) = (Hist::default(), Hist::default());
                    let (mut sent, mut failed) = (0u64, 0u64);
                    let mut batch = Vec::with_capacity(BATCH);
                    let mut last_ns = 0;
                    'phase: loop {
                        batch.clear();
                        client.refill(sent, &mut batch);
                        for input in &batch {
                            let i = lane as u64 + sent * lanes;
                            let now = origin.elapsed().as_nanos() as u64;
                            match turn(i, rate, now, end_ns) {
                                Turn::Stop => break 'phase,
                                Turn::WaitUntil(due) => {
                                    wait_until(origin, due);
                                    late.record(origin.elapsed().as_nanos() as u64 - due);
                                }
                                Turn::SendBacklogged => {}
                            }
                            let output = client.call(input);
                            last_ns = origin.elapsed().as_nanos() as u64;
                            sent += 1;
                            if client.check(input, &output, true) {
                                latency.record(last_ns - due_ns(i, rate));
                            } else {
                                failed += 1;
                            }
                        }
                    }
                    (latency, late, sent, failed, last_ns, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut open = Open {
        rate,
        latency: Hist::default(),
        late: Hist::default(),
        sent: 0,
        failed: 0,
        backlog_at_end: 0,
        planned_s: seconds,
        actual_s: 0.0,
    };
    let mut back = Vec::new();
    let mut last_ns = 0;
    for (latency, late, sent, failed, last, client) in per_thread {
        open.latency.merge(&latency);
        open.late.merge(&late);
        open.sent += sent;
        open.failed += failed;
        last_ns = last_ns.max(last);
        back.push(client);
    }
    open.backlog_at_end = due_before(end_ns, rate) - open.sent;
    open.actual_s = last_ns as f64 / 1e9;
    (open, back)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An operation that takes a fixed time and fails on request.
    struct Sleeper {
        op: Duration,
        fail_every: u64,
        seen: u64,
    }

    impl Client for Sleeper {
        type Input = u64;
        type Output = bool;
        fn refill(&mut self, from: u64, batch: &mut Vec<u64>) {
            batch.extend(from..from + 8);
        }
        fn call(&mut self, &i: &u64) -> bool {
            std::thread::sleep(self.op);
            self.fail_every == 0 || i % self.fail_every != 0
        }
        fn check(&mut self, _: &u64, ok: &bool, _: bool) -> bool {
            self.seen += 1;
            *ok
        }
    }

    fn sleepers(n: usize, op_ms: u64, fail_every: u64) -> Vec<Sleeper> {
        (0..n)
            .map(|_| Sleeper {
                op: Duration::from_millis(op_ms),
                fail_every,
                seen: 0,
            })
            .collect()
    }

    #[test]
    fn closed_loop_obeys_littles_law_and_counts_failures() {
        let phase = Phase::of(0.4, 16);
        let (closed, clients) = closed_loop(&phase, sleepers(2, 2, 5));
        assert!(closed.attempted > 100, "{}", closed.attempted);
        let share = closed.failed as f64 / closed.attempted as f64;
        assert!((0.15..0.25).contains(&share), "{share}");
        // A failed operation has no latency.
        assert_eq!(closed.all().count(), closed.succeeded());
        assert!(clients.iter().all(|c| c.seen > 0));
        let (clean, _) = closed_loop(&phase, sleepers(2, 2, 0));
        assert!(
            (clean.littles_clients() - 2.0).abs() < 0.2,
            "{}",
            clean.littles_clients()
        );
        assert!(clean.actual_s >= clean.planned_s);
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_counts_backlog() {
        // 100/s for 0.5 s over one connection whose operation takes 2 ms:
        // keeps up, nothing left over.
        let (open, _) = open_loop(100.0, 0.5, sleepers(1, 2, 0));
        assert_eq!((open.sent, open.backlog_at_end, open.failed), (50, 0, 0));
        assert!(open.latency.p50() >= 2e6 && open.latency.p50() < 4e6);
        // Request 0 is due at the phase's first instant, so already past:
        // at most the other 49 are waited for.
        assert!((1..=49).contains(&open.late.count()));
        // 1000/s against a 5 ms operation: the sender falls behind, the
        // wait shows in the latency, and unsent requests are the backlog.
        let (open, _) = open_loop(1000.0, 0.3, sleepers(1, 5, 0));
        assert!(open.sent < 80 && open.sent + open.backlog_at_end == 300);
        assert!(open.latency.percentile(0.9).unwrap() > 100e6);
        assert!(open.late.count() <= 2);
    }
}
