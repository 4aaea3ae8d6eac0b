//! Zero-allocation ghost exchange between neighbouring workers.
//!
//! The parallel solvers ship boundary rows/columns to their neighbours
//! every half-iteration. A general-purpose channel allocates per send (a
//! queue node, plus the payload `Vec` the old code built fresh each
//! phase). This module replaces both with a capacity-one rendezvous
//! mailbox and an owned-buffer recycling protocol:
//!
//! 1. the sender fills an owned `Vec<f64>` and moves it into the mailbox,
//! 2. the receiver copies it into its halo and *returns the same buffer*
//!    through a paired reverse mailbox,
//! 3. the sender reclaims that buffer before its next send.
//!
//! After the first half-iteration (which allocates each buffer once), the
//! steady state moves the same buffers back and forth forever: zero heap
//! allocations per iteration. The `sor` crate's `zero_alloc` integration
//! test pins this down with a counting global allocator.
//!
//! Deadlock freedom: every worker's phase is "send to all neighbours,
//! then drain all neighbours". A send blocks only on reclaiming the
//! buffer the neighbour returns while draining the *previous* phase —
//! which the neighbour reaches without needing anything from this
//! worker's current phase, so no cycle of waits can form.
//!
//! Fault tolerance: there is one exchange path and it is fallible. Every
//! wait is bounded by an [`ExchangePolicy`] (per-attempt timeout plus
//! bounded retries), a dead neighbour surfaces as
//! `ExchangeError::Disconnected` and a wedged one as
//! `ExchangeError::Timeout` instead of blocking forever; callers that
//! want to wait a neighbour out pass `ExchangePolicy::patient`.
//! All locking recovers from a peer's panic (no poisoned-lock panics);
//! dropping either endpoint wakes and disconnects the other side.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mailbox mutex, recovering the guard if a peer panicked while
/// holding it. The slot/closed state is a single word each and every
/// transition leaves it consistent, so the data is always usable — a
/// neighbour's panic must surface as `Disconnected`, not as a secondary
/// poisoned-lock panic on this thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state of one mailbox: the slot and a disconnect flag.
struct Shared<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

struct State<T> {
    slot: Option<T>,
    closed: bool,
}

/// The sending half of a capacity-one rendezvous channel.
pub(crate) struct MailSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a capacity-one rendezvous channel.
pub(crate) struct MailReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by `MailReceiver::recv_timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The sender dropped its endpoint (worker exited or panicked).
    Disconnected,
    /// Nothing arrived within the deadline; the peer may be wedged.
    Timeout,
}

/// Error returned by [`MailSender::send_timeout`], carrying the
/// undelivered value back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendTimeoutError<T> {
    /// The receiver dropped its endpoint.
    Disconnected(T),
    /// The previous value was not consumed within the deadline.
    Timeout(T),
}

/// A typed failure of one recycled-link exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExchangeError {
    /// The neighbour hung up: its endpoints were dropped, either because
    /// it exited early or because it panicked.
    Disconnected,
    /// The neighbour is still connected but did not exchange within the
    /// policy's deadline across every retry.
    Timeout,
}

/// Timeout-and-retry policy for one fallible exchange. Each individual
/// wait is bounded by `timeout`, and the exchange *as a whole* is bounded
/// by `ExchangePolicy::total_budget` — `timeout × (retries + 1)` —
/// armed once on entry and shared across every phase (buffer reclaim and
/// delivery alike), so no sequence of near-miss attempts can stretch one
/// exchange past its documented deadline. A disconnected neighbour is
/// reported immediately — retrying cannot resurrect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangePolicy {
    /// Deadline per attempt.
    pub timeout: Duration,
    /// Extra attempts after the first before giving up.
    pub retries: u32,
}

impl Default for ExchangePolicy {
    /// One second per attempt, four retries: five seconds of total
    /// patience per exchange, far above any healthy phase latency.
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(1),
            retries: 4,
        }
    }
}

impl ExchangePolicy {
    /// The near-infinite policy backing the infallible solver entry
    /// points: a wedged neighbour is waited out for an hour per attempt
    /// while a *dead* neighbour still surfaces immediately.
    pub(crate) fn patient() -> Self {
        Self {
            timeout: Duration::from_secs(3600),
            retries: 0,
        }
    }

    /// Total wait budget of one exchange operation:
    /// `timeout × (retries + 1)`. Every `try_*` exchange arms this once
    /// on entry; all of its internal waits draw down the same budget.
    pub(crate) fn total_budget(&self) -> Duration {
        self.timeout.saturating_mul(self.retries + 1)
    }

    /// The next wait bounded by both the per-attempt `timeout` and the
    /// time remaining until `deadline`. `None` once the budget is spent.
    fn next_wait(&self, deadline: Instant) -> Option<Duration> {
        let remaining = deadline.saturating_duration_since(Instant::now()); // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
        if remaining.is_zero() {
            return None;
        }
        Some(self.timeout.min(remaining))
    }
}

/// Creates a connected capacity-one mailbox pair.
pub(crate) fn mailbox<T>() -> (MailSender<T>, MailReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            slot: None,
            closed: false,
        }),
        cond: Condvar::new(),
    });
    (
        MailSender {
            shared: Arc::clone(&shared),
        },
        MailReceiver { shared },
    )
}

impl<T> MailSender<T> {
    /// Moves `value` into the slot, waiting while the previous value is
    /// still unconsumed and giving up once `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns [`SendTimeoutError::Timeout`] when `timeout` elapses and
    /// [`SendTimeoutError::Disconnected`] when the peer hung up; the value
    /// rides back inside either variant.
    pub(crate) fn send_timeout(
        &self,
        value: T,
        timeout: Duration,
    ) -> Result<(), SendTimeoutError<T>> {
        let deadline = Instant::now() + timeout; // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
        let mut state = lock(&self.shared.state);
        while state.slot.is_some() && !state.closed {
            let now = Instant::now(); // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
            if now >= deadline {
                return Err(SendTimeoutError::Timeout(value));
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        if state.closed {
            return Err(SendTimeoutError::Disconnected(value));
        }
        state.slot = Some(value);
        self.shared.cond.notify_all();
        Ok(())
    }
}

impl<T> MailReceiver<T> {
    /// Takes the value out of the slot, waiting until one arrives and
    /// giving up once `timeout` elapses with nothing delivered.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError::Timeout`] when `timeout` elapses and
    /// [`RecvTimeoutError::Disconnected`] when the sender hung up with the
    /// slot empty.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout; // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(value) = state.slot.take() {
                self.shared.cond.notify_all();
                return Ok(value);
            }
            if state.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now(); // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }
}

impl<T> Drop for MailSender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.closed = true;
        self.shared.cond.notify_all();
    }
}

impl<T> Drop for MailReceiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.closed = true;
        self.shared.cond.notify_all();
    }
}

/// One direction of a neighbour link with buffer recycling: a data
/// mailbox out and a buffer-return mailbox back.
pub(crate) struct RecycledSender {
    data: MailSender<Vec<f64>>,
    returns: MailReceiver<Vec<f64>>,
    /// The buffer currently owned by this side (None while in flight).
    stash: Option<Vec<f64>>,
}

/// The matching inbound endpoint: a data mailbox in and a buffer-return
/// mailbox out.
pub(crate) struct RecycledReceiver {
    data: MailReceiver<Vec<f64>>,
    returns: MailSender<Vec<f64>>,
}

/// Creates a recycling link carrying `len`-element rows. The sender's
/// single buffer is allocated up front; nothing allocates after that.
pub(crate) fn recycled_link(len: usize) -> (RecycledSender, RecycledReceiver) {
    let (data_tx, data_rx) = mailbox();
    let (ret_tx, ret_rx) = mailbox();
    (
        RecycledSender {
            data: data_tx,
            returns: ret_rx,
            stash: Some(vec![0.0; len]),
        },
        RecycledReceiver {
            data: data_rx,
            returns: ret_tx,
        },
    )
}

impl RecycledSender {
    /// Sends one boundary row: reclaims the recycled buffer (waiting for
    /// the neighbour's return if it is still in flight), fills it via
    /// `fill`, and ships it. A dead neighbour surfaces as
    /// [`ExchangeError::Disconnected`], a wedged one as
    /// [`ExchangeError::Timeout`] once the policy's
    /// [total budget](ExchangePolicy::total_budget) is spent. The budget
    /// is armed once on entry and shared between the buffer-reclaim and
    /// delivery phases, so a slow-but-not-dead neighbour cannot stretch
    /// one exchange past `timeout × (retries + 1)`. On timeout the buffer
    /// is restashed, so a later retry of the whole exchange still
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ExchangeError::Disconnected`] for a dead neighbour and
    /// [`ExchangeError::Timeout`] once the policy's total budget is spent.
    pub(crate) fn try_send_with(
        &mut self,
        policy: &ExchangePolicy,
        fill: impl FnOnce(&mut [f64]),
    ) -> Result<(), ExchangeError> {
        let deadline = Instant::now() + policy.total_budget(); // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
        let mut buf = match self.stash.take() {
            Some(buf) => buf,
            None => loop {
                let Some(wait) = policy.next_wait(deadline) else {
                    return Err(ExchangeError::Timeout);
                };
                match self.returns.recv_timeout(wait) {
                    Ok(b) => break b,
                    Err(RecvTimeoutError::Disconnected) => return Err(ExchangeError::Disconnected),
                    Err(RecvTimeoutError::Timeout) => continue,
                }
            },
        };
        fill(&mut buf);
        let mut pending = buf;
        loop {
            let Some(wait) = policy.next_wait(deadline) else {
                self.stash = Some(pending);
                return Err(ExchangeError::Timeout);
            };
            match self.data.send_timeout(pending, wait) {
                Ok(()) => return Ok(()),
                Err(SendTimeoutError::Disconnected(_)) => return Err(ExchangeError::Disconnected),
                Err(SendTimeoutError::Timeout(b)) => pending = b,
            }
        }
    }
}

impl RecycledReceiver {
    /// Receives one boundary row, hands it to `consume`, and returns the
    /// buffer to the sender for reuse, with the same contract as
    /// [`RecycledSender::try_send_with`]: the policy's total budget is
    /// armed once on entry and bounds the whole receive. The post-success
    /// buffer-return leg may add at most one further `timeout`, so the
    /// worst case is `total_budget + timeout` ("budget plus one
    /// attempt").
    ///
    /// # Errors
    ///
    /// Returns [`ExchangeError::Disconnected`] for a dead neighbour and
    /// [`ExchangeError::Timeout`] once the policy's total budget is spent.
    pub(crate) fn try_recv_with(
        &self,
        policy: &ExchangePolicy,
        consume: impl FnOnce(&[f64]),
    ) -> Result<(), ExchangeError> {
        let deadline = Instant::now() + policy.total_budget(); // tidy:allow(PP001): runtime timeout bookkeeping, not simulated time
        let row = loop {
            let Some(wait) = policy.next_wait(deadline) else {
                return Err(ExchangeError::Timeout);
            };
            match self.data.recv_timeout(wait) {
                Ok(row) => break row,
                Err(RecvTimeoutError::Disconnected) => return Err(ExchangeError::Disconnected),
                Err(RecvTimeoutError::Timeout) => continue,
            }
        };
        consume(&row);
        // Returning the buffer can only fail if the sender is gone or
        // wedged, at which point recycling no longer matters — do not
        // let the return leg block this worker.
        let _ = self.returns.send_timeout(row, policy.timeout);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// One attempt of the patient policy: the wait of a caller that means
    /// to block.
    fn patience() -> Duration {
        ExchangePolicy::patient().timeout
    }

    #[test]
    fn mailbox_passes_values_in_order() {
        let (tx, rx) = mailbox();
        let h = thread::spawn(move || {
            for i in 0..100u64 {
                tx.send_timeout(i, patience()).unwrap();
            }
        });
        for i in 0..100u64 {
            assert_eq!(rx.recv_timeout(patience()), Ok(i));
        }
        h.join().unwrap();
    }

    #[test]
    fn recv_errors_after_sender_drops() {
        let (tx, rx) = mailbox::<u32>();
        tx.send_timeout(7, patience()).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(patience()), Ok(7)); // buffered value still delivered
        assert_eq!(
            rx.recv_timeout(patience()),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = mailbox::<u32>();
        drop(rx);
        assert_eq!(
            tx.send_timeout(7, patience()),
            Err(SendTimeoutError::Disconnected(7))
        );
    }

    #[test]
    fn recycled_link_round_trips_the_same_buffer() {
        let (mut tx, rx) = recycled_link(4);
        let policy = ExchangePolicy::patient();
        let h = thread::spawn(move || {
            let mut ptrs = Vec::new();
            for _ in 0..50 {
                rx.try_recv_with(&policy, |row| ptrs.push(row.as_ptr() as usize))
                    .unwrap();
            }
            ptrs
        });
        for i in 0..50 {
            tx.try_send_with(&policy, |buf| buf.fill(i as f64)).unwrap();
        }
        let ptrs = h.join().unwrap();
        // Steady state reuses one allocation: every delivery saw the same
        // buffer address.
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "buffer not recycled");
    }

    fn snappy() -> ExchangePolicy {
        ExchangePolicy {
            timeout: Duration::from_millis(50),
            retries: 1,
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = mailbox::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send_timeout(9, patience()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_timeout_returns_the_value_on_full_slot() {
        let (tx, rx) = mailbox();
        tx.send_timeout(1u32, patience()).unwrap();
        // Slot occupied, receiver not draining: the value rides back.
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(20)),
            Err(SendTimeoutError::Timeout(2))
        );
        assert_eq!(rx.recv_timeout(patience()), Ok(1));
        tx.send_timeout(3, Duration::from_millis(20)).unwrap();
        drop(rx);
        assert_eq!(
            tx.send_timeout(4, Duration::from_millis(20)),
            Err(SendTimeoutError::Disconnected(4))
        );
    }

    #[test]
    fn try_send_times_out_against_a_wedged_receiver() {
        // The receiver endpoint stays alive but never drains: the first
        // exchange parks a row in the slot, the second cannot reclaim the
        // buffer and must report Timeout, not block.
        let (mut tx, _rx) = recycled_link(4);
        tx.try_send_with(&snappy(), |buf| buf.fill(1.0)).unwrap();
        assert_eq!(
            tx.try_send_with(&snappy(), |buf| buf.fill(2.0)),
            Err(ExchangeError::Timeout)
        );
    }

    #[test]
    fn try_recv_times_out_against_a_silent_sender() {
        let (_tx, rx) = recycled_link(4);
        assert_eq!(
            rx.try_recv_with(&snappy(), |_| {}),
            Err(ExchangeError::Timeout)
        );
    }

    #[test]
    fn dead_neighbour_surfaces_as_disconnected_not_timeout() {
        let (mut tx, rx) = recycled_link(4);
        drop(rx);
        assert_eq!(
            tx.try_send_with(&snappy(), |buf| buf.fill(1.0)),
            Err(ExchangeError::Disconnected)
        );
        let (tx2, rx2) = recycled_link(4);
        drop(tx2);
        assert_eq!(
            rx2.try_recv_with(&snappy(), |_| {}),
            Err(ExchangeError::Disconnected)
        );
    }

    #[test]
    fn try_exchange_recycles_like_the_infallible_path() {
        // The same round trip under the default policy, whose waits are
        // retried attempts rather than one long one.
        let (mut tx, rx) = recycled_link(4);
        let policy = ExchangePolicy::default();
        let h = thread::spawn(move || {
            let mut ptrs = Vec::new();
            for _ in 0..50 {
                rx.try_recv_with(&policy, |row| ptrs.push(row.as_ptr() as usize))
                    .unwrap();
            }
            ptrs
        });
        for i in 0..50 {
            tx.try_send_with(&policy, |buf| buf.fill(i as f64)).unwrap();
        }
        let ptrs = h.join().unwrap();
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "buffer not recycled");
    }

    #[test]
    fn wedged_receiver_costs_exactly_one_total_budget() {
        // Regression: the reclaim and delivery phases used to re-arm the
        // full per-attempt timeout independently, so one exchange could
        // cost up to twice its documented budget. The deadline is now
        // armed once on entry: a fully wedged neighbour costs the total
        // budget — no less (no premature give-up) and at most one extra
        // attempt more (scheduling slack).
        let policy = ExchangePolicy {
            timeout: Duration::from_millis(40),
            retries: 3,
        };
        let budget = policy.total_budget();
        assert_eq!(budget, Duration::from_millis(160));

        // Send side, wedged receiver: the first exchange parks the buffer
        // in flight, so the second spends its whole budget in the reclaim
        // phase waiting on a return that never comes.
        let (mut tx, _rx) = recycled_link(4);
        tx.try_send_with(&policy, |b| b.fill(1.0)).unwrap();
        let started = Instant::now();
        assert_eq!(
            tx.try_send_with(&policy, |b| b.fill(2.0)),
            Err(ExchangeError::Timeout)
        );
        let elapsed = started.elapsed();
        assert!(elapsed >= budget - Duration::from_millis(5), "{elapsed:?}");
        assert!(
            elapsed <= budget + policy.timeout + Duration::from_millis(100),
            "one wedged exchange must cost at most budget + one attempt, took {elapsed:?}"
        );

        // Receive side, silent sender.
        let (_tx3, rx3) = recycled_link(4);
        let started = Instant::now();
        assert_eq!(
            rx3.try_recv_with(&policy, |_| {}),
            Err(ExchangeError::Timeout)
        );
        let elapsed = started.elapsed();
        assert!(elapsed >= budget - Duration::from_millis(5), "{elapsed:?}");
        assert!(
            elapsed <= budget + policy.timeout + Duration::from_millis(100),
            "receive must honor the total budget, took {elapsed:?}"
        );
    }

    #[test]
    fn slow_mailbox_stays_within_budget_plus_one_attempt() {
        // A deliberately slow (but live) peer: consumes one row every
        // ~30 ms against a 25 ms per-attempt timeout, so most exchanges
        // need a mid-wait retry. No single call may exceed the total
        // budget plus one attempt.
        let policy = ExchangePolicy {
            timeout: Duration::from_millis(25),
            retries: 5,
        };
        let cap = policy.total_budget() + policy.timeout + Duration::from_millis(100);
        let (mut tx, rx) = recycled_link(4);
        let peer = thread::spawn(move || {
            for _ in 0..20 {
                thread::sleep(Duration::from_millis(30));
                rx.try_recv_with(&ExchangePolicy::patient(), |_| {})
                    .unwrap();
            }
        });
        for i in 0..20 {
            let started = Instant::now();
            tx.try_send_with(&policy, |b| b.fill(i as f64))
                .expect("slow neighbour is alive; exchange must succeed");
            let elapsed = started.elapsed();
            assert!(elapsed <= cap, "call {i} took {elapsed:?} (cap {cap:?})");
        }
        peer.join().unwrap();
    }

    #[test]
    fn peer_panic_mid_exchange_is_disconnect_not_poison() {
        // A peer that panics after consuming one row must surface as
        // Disconnected on the survivor's side — never a poisoned-lock
        // panic.
        let (mut tx, rx) = recycled_link(2);
        let h = thread::spawn(move || {
            rx.try_recv_with(&ExchangePolicy::patient(), |_| {})
                .unwrap();
            panic!("worker dies");
        });
        tx.try_send_with(&ExchangePolicy::default(), |buf| buf.fill(1.0))
            .unwrap();
        assert!(h.join().is_err());
        let mut saw = Err(ExchangeError::Timeout);
        for _ in 0..3 {
            saw = tx.try_send_with(&snappy(), |buf| buf.fill(2.0));
            if saw == Err(ExchangeError::Disconnected) {
                break;
            }
        }
        assert_eq!(saw, Err(ExchangeError::Disconnected));
    }

    #[test]
    fn two_way_exchange_does_not_deadlock() {
        // Mirror the solver's phase structure: both sides send first,
        // then drain, many times over.
        let (mut a_tx, b_rx) = recycled_link(8);
        let (mut b_tx, a_rx) = recycled_link(8);
        let policy = ExchangePolicy::patient();
        let peer = thread::spawn(move || {
            for i in 0..200 {
                b_tx.try_send_with(&policy, |buf| buf.fill(i as f64))
                    .unwrap();
                b_rx.try_recv_with(&policy, |row| assert_eq!(row[0], i as f64))
                    .unwrap();
            }
        });
        for i in 0..200 {
            a_tx.try_send_with(&policy, |buf| buf.fill(i as f64))
                .unwrap();
            a_rx.try_recv_with(&policy, |row| assert_eq!(row[0], i as f64))
                .unwrap();
        }
        peer.join().unwrap();
    }
}
