//! The load generator: open-loop senders on a fixed arrival schedule and
//! closed-loop senders with one request in flight.
//!
//! Open-loop senders sleep until each request is due and never spin: on a
//! small host a polling sender steals the CPU of the server it measures.
//! The default 50 µs timer slack would make every wake-up that much late,
//! so each sender thread sets its own slack to 1 ns first. Lateness (send
//! time minus due time) is reported, and latency is charged from the due
//! time, so a stalled server is charged for the queue it builds.

use crate::spans::Tracer;
use ius::server::ClientError;
use std::os::raw::{c_int, c_ulong};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: c_int = 29;

/// Sets the calling thread's timer slack to 1 ns, so a sleep wakes as
/// close to its deadline as the kernel allows. Returns whether the kernel
/// accepted it.
pub fn set_timer_slack_1ns() -> bool {
    // SAFETY: prctl(PR_SET_TIMERSLACK, value) reads one unsigned long
    // argument, passed here; it touches no memory of this process.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) == 0 }
}

/// Why one operation did not count as a sample.
#[derive(Debug)]
pub enum OpError {
    /// The system failed or refused the operation: counted as failed.
    Failed {
        /// The server answered with a typed refusal (as opposed to a
        /// transport or protocol failure).
        refused: bool,
        /// What happened.
        message: String,
    },
    /// The system answered wrongly: the run aborts.
    Mismatch(String),
}

impl From<ClientError> for OpError {
    fn from(e: ClientError) -> Self {
        OpError::Failed {
            refused: matches!(e, ClientError::Server { .. }),
            message: e.to_string(),
        }
    }
}

/// Failure counts of one sender.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Of the failures, typed refusals.
    pub refusals: u64,
}

impl Counts {
    fn fail(&mut self, refused: bool, message: &str) {
        if self.failed == 0 {
            eprintln!("servebench: operation failed: {message}");
        }
        self.failed += 1;
        self.refusals += u64::from(refused);
    }

    /// Sums two counts.
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refusals += other.refusals;
    }
}

/// One sender's share of an arrival schedule: requests
/// `first, first + step, …` below `count`, request `i` due at
/// `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Stripe {
    /// Time request 0 is due.
    pub start: Instant,
    /// Arrivals per second over the whole schedule.
    pub rate: f64,
    /// First request of this sender.
    pub first: usize,
    /// Senders sharing the schedule.
    pub step: usize,
    /// Requests in the whole schedule.
    pub count: usize,
}

/// Span names of one kind of open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct SpanNames {
    /// The whole request, due time to answer.
    pub request: &'static str,
    /// The system call, send to answer.
    pub call: &'static str,
}

/// Samples of one open-loop sender, in microseconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Schedule index of each sample.
    pub index: Vec<usize>,
    /// Send time minus due time.
    pub late_us: Vec<f64>,
    /// Answer time minus due time.
    pub latency_us: Vec<f64>,
    /// Answer time minus send time.
    pub call_us: Vec<f64>,
    /// Operation counts.
    pub counts: Counts,
}

impl OpenLoop {
    /// Merges the samples of several senders in schedule order.
    pub fn merge(parts: Vec<OpenLoop>) -> OpenLoop {
        let mut rows = Vec::new();
        let mut counts = Counts::default();
        for part in parts {
            counts.add(part.counts);
            rows.extend((0..part.index.len()).map(|k| {
                (
                    part.index[k],
                    part.late_us[k],
                    part.latency_us[k],
                    part.call_us[k],
                )
            }));
        }
        rows.sort_by_key(|row| row.0);
        OpenLoop {
            index: rows.iter().map(|r| r.0).collect(),
            late_us: rows.iter().map(|r| r.1).collect(),
            latency_us: rows.iter().map(|r| r.2).collect(),
            call_us: rows.iter().map(|r| r.3).collect(),
            counts,
        }
    }
}

/// Runs one open-loop sender. `call(i)` performs request `i` and
/// `check(i, answer, call_us)` validates its answer once the answer time
/// is taken (`call_us` is send to answer); a failed check of
/// kind [`OpError::Mismatch`] aborts with its message, and no wrong answer
/// is ever recorded as a sample.
pub fn open_loop<R>(
    stripe: Stripe,
    tracer: &mut Tracer,
    names: SpanNames,
    req_base: u64,
    mut call: impl FnMut(usize) -> Result<R, OpError>,
    mut check: impl FnMut(usize, R, f64) -> Result<(), OpError>,
) -> Result<OpenLoop, String> {
    set_timer_slack_1ns();
    let expected = stripe.count / stripe.step + 1;
    let mut out = OpenLoop {
        index: Vec::with_capacity(expected),
        late_us: Vec::with_capacity(expected),
        latency_us: Vec::with_capacity(expected),
        call_us: Vec::with_capacity(expected),
        counts: Counts::default(),
    };
    let mut i = stripe.first;
    while i < stripe.count {
        let due = stripe.start + Duration::from_secs_f64(i as f64 / stripe.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        out.counts.attempted += 1;
        let result = call(i);
        let done = Instant::now();
        let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
        let call_us = us(send, done);
        match result.and_then(|r| check(i, r, call_us)) {
            Ok(()) => {
                out.index.push(i);
                out.late_us.push(us(due, send));
                out.latency_us.push(us(due, done));
                out.call_us.push(call_us);
                let req = req_base + i as u64;
                let root = tracer.record(names.request, due.min(send), done, None, req);
                tracer.record("client.send_late", due.min(send), send, root, req);
                tracer.record(names.call, send, done, root, req);
            }
            Err(OpError::Failed { refused, message }) => out.counts.fail(refused, &message),
            Err(OpError::Mismatch(message)) => return Err(message),
        }
        i += stripe.step;
    }
    Ok(out)
}

/// Samples of one closed-loop sender.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// `(request index, round trip µs)` of every answered request.
    pub rt_us: Vec<(usize, f64)>,
    /// Operation counts.
    pub counts: Counts,
}

/// Runs one closed-loop sender until `deadline`: requests
/// `first, first + step, …`, the next sent as soon as the previous one is
/// answered and checked.
pub fn closed_loop<R>(
    deadline: Instant,
    first: usize,
    step: usize,
    tracer: &mut Tracer,
    mut call: impl FnMut(usize) -> Result<R, OpError>,
    mut check: impl FnMut(usize, R) -> Result<(), OpError>,
) -> Result<ClosedLoop, String> {
    let mut out = ClosedLoop::default();
    let mut i = first;
    loop {
        let send = Instant::now();
        if send >= deadline {
            return Ok(out);
        }
        out.counts.attempted += 1;
        let result = call(i);
        let done = Instant::now();
        match result.and_then(|r| check(i, r)) {
            Ok(()) => {
                out.rt_us.push((i, (done - send).as_secs_f64() * 1e6));
                tracer.record(
                    "server.closed_roundtrip",
                    send,
                    done,
                    None,
                    crate::spans::REQ_CLOSED | i as u64,
                );
            }
            Err(OpError::Failed { refused, message }) => out.counts.fail(refused, &message),
            Err(OpError::Mismatch(message)) => return Err(message),
        }
        i += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_slack_is_accepted() {
        assert!(set_timer_slack_1ns());
    }

    #[test]
    fn open_loop_keeps_the_schedule_and_aborts_on_a_mismatch() {
        let mut tracer = Tracer::new(true, Instant::now());
        let stripe = Stripe {
            start: Instant::now(),
            rate: 2_000.0,
            first: 1,
            step: 2,
            count: 20,
        };
        let names = SpanNames {
            request: "client.request",
            call: "server.roundtrip",
        };
        let ok =
            open_loop(stripe, &mut tracer, names, 0, Ok, |_, _, _| Ok(())).expect("no mismatch");
        assert_eq!(ok.counts.attempted, 10);
        assert_eq!(ok.latency_us.len(), 10);
        assert!(ok
            .latency_us
            .iter()
            .zip(&ok.late_us)
            .all(|(lat, late)| lat >= late));
        assert_eq!(tracer.spans().len(), 30);
        let err = open_loop(stripe, &mut tracer, names, 0, Ok, |i, _, _| {
            if i == 5 {
                Err(OpError::Mismatch("wrong".into()))
            } else {
                Ok(())
            }
        })
        .expect_err("mismatch aborts");
        assert_eq!(err, "wrong");
    }
}
