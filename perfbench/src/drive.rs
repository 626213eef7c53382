//! Load drivers over persistent connections: a closed loop for capacity and
//! an open loop on a fixed schedule for latency at a rate.
//!
//! `imcat_net::open_loop` opens one connection per request, so at high
//! rates it measures connection setup rather than serving. This open loop
//! keeps one connection per thread instead. Each request has a due time on
//! a fixed schedule and its latency is measured from that due time, so a
//! stall that delays later sends shows up in their latency (no coordinated
//! omission), and how late the generator itself ran is reported beside it.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::stats::{median, us};
use crate::wire::{recommend_target, Client, Outcome, Tally};

/// Which user each read asks for: a replayed stream of warm users, with
/// every `cold_every`-th read going to a cold user the writer has already
/// registered (once there is one).
#[derive(Clone)]
pub struct Mix {
    /// Warm users, replayed cyclically.
    pub warm: Arc<Vec<u32>>,
    /// 0 = warm users only.
    pub cold_every: usize,
    /// Cold user ids registered so far.
    pub cold: Arc<Mutex<Vec<u32>>>,
}

impl Mix {
    /// Reads of warm users only.
    pub fn warm(warm: Vec<u32>) -> Self {
        Self { warm: Arc::new(warm), cold_every: 0, cold: Arc::default() }
    }

    /// The user for read `j`, and whether it is a warm user.
    fn pick(&self, j: u64) -> (u32, bool) {
        if self.cold_every > 0 && j % self.cold_every as u64 == 0 {
            let cold = self.cold.lock().expect("cold-id list poisoned");
            if !cold.is_empty() {
                return (cold[(j / self.cold_every as u64) as usize % cold.len()], false);
            }
        }
        (self.warm[j as usize % self.warm.len()], true)
    }
}

/// The outcome of one load phase.
#[derive(Default)]
pub struct Reads {
    /// Request accounting.
    pub tally: Tally,
    /// Latency of every answered request, µs. The open loop measures from
    /// the due time.
    pub latency_us: Vec<f64>,
    /// When each latency sample completed, seconds since the phase began.
    pub done_s: Vec<f64>,
    /// Open loop only: how late each request was sent, µs.
    pub lateness_us: Vec<f64>,
    /// Open loop only: whether any connection's backlog grew (see
    /// [`backlog_grows`]).
    pub backlog_grows: bool,
    /// Wall time from the start of the phase to the last answer, seconds.
    pub elapsed_s: f64,
    /// Sampled `(user, k, body)` answers for warm users, for the
    /// correctness check.
    pub sampled: Vec<(u32, usize, String)>,
}

impl Reads {
    fn merge(&mut self, other: Reads) {
        self.tally.add(&other.tally);
        self.latency_us.extend(other.latency_us);
        self.done_s.extend(other.done_s);
        self.lateness_us.extend(other.lateness_us);
        self.backlog_grows |= other.backlog_grows;
        self.sampled.extend(other.sampled);
    }

    /// Answered requests per second of the phase's wall time.
    pub fn answered_per_s(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// Median over [`WINDOW`]s of each window's p99 latency, µs, and the
    /// window count.
    pub fn windowed_p99(&self) -> Option<(f64, usize)> {
        crate::stats::windowed_p99(&self.done_s, &self.latency_us, WINDOW.as_secs_f64())
    }
}

/// Window length of the windowed p99.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Runs `body(connection index)` on `conns` threads and merges what they
/// return; `elapsed_s` spans `start` to the last thread's end.
fn on_threads(start: Instant, conns: usize, body: impl Fn(usize) -> Reads + Sync) -> Reads {
    let parts: Vec<Reads> = thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (0..conns).map(|c| s.spawn(move || body(c))).collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut out = Reads::default();
    for part in parts {
        out.merge(part);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Closed loop: each of `conns` connections sends its next read as soon as
/// the previous answer lands, until `duration` has passed. Every
/// `sample_every`-th warm answer is kept for the correctness check.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    mix: &Mix,
    k: usize,
    duration: Duration,
    sample_every: u64,
) -> Reads {
    let start = Instant::now();
    let end = start + duration;
    on_threads(start, conns, |c| {
        let mut out = Reads::default();
        let Ok(mut client) = Client::connect(addr) else {
            out.tally.record(&Outcome::Failed);
            return out;
        };
        let mut i = 0u64;
        while Instant::now() < end {
            let j = i * conns as u64 + c as u64;
            let (user, warm) = mix.pick(j);
            let t0 = Instant::now();
            let outcome = client.get(&recommend_target(user, k));
            let dt = t0.elapsed();
            out.tally.record(&outcome);
            if let Outcome::Ok(body) = outcome {
                out.latency_us.push(us(dt));
                out.done_s.push(start.elapsed().as_secs_f64());
                // Offset by one so the sample never lands on a cold pick.
                if warm && sample_every > 0 && j % sample_every == 1 {
                    out.sampled.push((user, k, body));
                }
            }
            i += 1;
        }
        out
    })
}

/// Number of requests an open loop at `rate` per second schedules in
/// `duration`.
pub fn schedule_len(rate: f64, duration: Duration) -> u64 {
    (rate * duration.as_secs_f64()).floor() as u64
}

/// When request `j` of an open loop at `rate` per second is due, relative to
/// the start.
pub fn due_offset(j: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(j as f64 / rate)
}

/// The schedule indices connection `c` of `conns` sends, in order.
pub fn conn_schedule(c: usize, conns: usize, n: u64) -> impl Iterator<Item = u64> {
    (c as u64..n).step_by(conns)
}

/// How late a request was sent relative to its due time, µs (0 when on
/// time or early).
pub fn lateness_us(due: Instant, sent: Instant) -> f64 {
    us(sent.saturating_duration_since(due))
}

/// Growth in generator lateness, from the first to the last quarter of a
/// rung, above which the backlog counts as growing. Past saturation the
/// backlog grows by tens of ms within a rung; one scheduler stall adds a
/// few ms to a few requests only.
pub const BACKLOG_GROWTH_US: f64 = 1000.0;

/// True when the generator fell further behind as the schedule went on:
/// the median lateness of the last quarter of one connection's `lateness`
/// (in schedule order) exceeds that of the first quarter by more than
/// [`BACKLOG_GROWTH_US`].
pub fn backlog_grows(lateness: &[f64]) -> bool {
    let q = lateness.len() / 4;
    if q == 0 {
        return false;
    }
    median(&lateness[lateness.len() - q..]) > median(&lateness[..q]) + BACKLOG_GROWTH_US
}

/// Sleeps, then yields, until `due`. The last stretch yields instead of
/// sleeping because a sleep overshoots by tens of µs, which would count as
/// generator lateness; yielding rather than spinning leaves the core to
/// the server.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(250);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

/// Open loop: `rate` reads per second for `duration`, request `j` due at
/// `j / rate`, spread round-robin over `conns` persistent connections. A
/// connection whose previous answer is late sends its next read late; the
/// wait counts in that read's latency and in `lateness_us`.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    mix: &Mix,
    k: usize,
    rate: f64,
    duration: Duration,
) -> Reads {
    let n = schedule_len(rate, duration);
    let start = Instant::now() + Duration::from_millis(5);
    on_threads(start, conns, |c| {
        let mut out = Reads::default();
        let Ok(mut client) = Client::connect(addr) else {
            out.tally.record(&Outcome::Failed);
            return out;
        };
        for j in conn_schedule(c, conns, n) {
            let due = start + due_offset(j, rate);
            wait_until(due);
            let sent = Instant::now();
            let (user, _) = mix.pick(j);
            let outcome = client.get(&recommend_target(user, k));
            let done = Instant::now();
            out.tally.record(&outcome);
            out.lateness_us.push(lateness_us(due, sent));
            if let Outcome::Ok(_) = outcome {
                out.latency_us.push(us(done - due));
                out.done_s.push((done - start).as_secs_f64());
            }
        }
        out.backlog_grows = backlog_grows(&out.lateness_us);
        out
    })
}

/// The fixed ladder of offered rates, identical on every commit: from about
/// a quarter of what one reader connection beside the writer sustained when
/// the benchmark was written (read-hot did ~5k/s on 2 cores) up to 40k/s,
/// beyond what a server without the 200 µs batch linger reached there.
/// Steps of 2^(1/4) (19%), so one step stays inside `slo_rate_qps`'s bound.
pub fn ladder() -> Vec<f64> {
    (0..=24).map(|i| (625.0 * 2f64.powf(i as f64 / 4.0)).round()).collect()
}

/// The latency limit of the SLO: windowed p99 at most 5 ms. On a 2-core
/// machine, scheduler noise alone puts single 100 ms windows of an idle
/// server above 1 ms, and `ingest-mix` reads wait behind fold ticks of a
/// few ms; at 5 ms the climb ends where the server saturates.
pub const SLO_P99_US: f64 = 5000.0;

/// One rung of the ladder.
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Answered requests per second.
    pub achieved: f64,
    /// Windowed p99 latency from the due time, µs (infinite when nothing
    /// answered).
    pub p99_us: f64,
    /// Request accounting.
    pub tally: Tally,
    /// Whether the generator fell further behind during the rung.
    pub backlog_grows: bool,
}

impl Rung {
    /// Whether the rung meets the SLO: windowed p99 within the limit, no
    /// failures, no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.p99_us <= SLO_P99_US && self.tally.not_ok() == 0 && !self.backlog_grows
    }
}

/// Climbs the ladder, `rung` seconds per rate, until a rate the server
/// cannot keep up with: one where the generator's backlog grows or a
/// request fails. A rung that only misses the latency limit does not end
/// the climb, so one stall of the machine costs that rung, not the rest of
/// the ladder. Returns every rung run.
pub fn climb(addr: SocketAddr, conns: usize, mix: &Mix, k: usize, rung: Duration) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for rate in ladder() {
        let reads = open_loop(addr, conns, mix, k, rate, rung);
        let p99_us = reads.windowed_p99().map_or(f64::INFINITY, |(p99, _)| p99);
        let r = Rung {
            rate,
            achieved: reads.answered_per_s(),
            p99_us,
            tally: reads.tally,
            backlog_grows: reads.backlog_grows,
        };
        let saturated = r.backlog_grows || r.tally.not_ok() > 0;
        rungs.push(r);
        if saturated {
            break;
        }
    }
    rungs
}

/// The highest answered rate among the rungs that met the SLO (0 when none
/// did).
pub fn slo_rate(rungs: &[Rung]) -> f64 {
    rungs.iter().filter(|r| r.meets_slo()).map(|r| r.achieved).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_by_the_rate() {
        assert_eq!(schedule_len(2000.0, Duration::from_millis(500)), 1000);
        assert_eq!(schedule_len(1250.0, Duration::from_millis(333)), 416);
        assert_eq!(due_offset(0, 2000.0), Duration::ZERO);
        assert_eq!(due_offset(1, 2000.0), Duration::from_micros(500));
        assert_eq!(due_offset(2000, 2000.0), Duration::from_secs(1));
    }

    #[test]
    fn connections_split_the_schedule_round_robin() {
        let a: Vec<u64> = conn_schedule(0, 2, 7).collect();
        let b: Vec<u64> = conn_schedule(1, 2, 7).collect();
        assert_eq!(a, [0, 2, 4, 6]);
        assert_eq!(b, [1, 3, 5]);
        let one: Vec<u64> = conn_schedule(0, 1, 3).collect();
        assert_eq!(one, [0, 1, 2]);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let due = Instant::now();
        assert_eq!(lateness_us(due, due), 0.0);
        assert_eq!(lateness_us(due + Duration::from_micros(1), due), 0.0, "early is on time");
        let late = lateness_us(due, due + Duration::from_micros(250));
        assert!((late - 250.0).abs() < 1e-6, "{late}");
    }

    #[test]
    fn backlog_detection_compares_first_and_last_quarters() {
        let steady: Vec<f64> = (0..100).map(|i| (i % 7) as f64 * 10.0).collect();
        assert!(!backlog_grows(&steady));
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 50.0).collect();
        assert!(backlog_grows(&growing));
        assert!(!backlog_grows(&[1e6, 0.0, 0.0]), "too short to judge");
    }

    #[test]
    fn ladder_is_fixed_geometric_and_spans_the_targets() {
        let l = ladder();
        assert_eq!(l.len(), 25);
        assert_eq!(l[0], 625.0);
        assert_eq!(l[4], 1250.0);
        assert_eq!(l[24], 40000.0);
        for w in l.windows(2) {
            assert!(w[1] / w[0] < 1.2, "step {w:?} wider than 2^(1/4)");
        }
    }

    #[test]
    fn slo_needs_latency_no_failures_and_no_backlog() {
        let rung = |p99_us: f64, refused: u64, backlog_grows: bool, achieved: f64| Rung {
            rate: achieved,
            achieved,
            p99_us,
            tally: Tally { sent: 10, ok: 10 - refused, refused, ..Tally::default() },
            backlog_grows,
        };
        assert!(rung(4999.0, 0, false, 1.0).meets_slo());
        assert!(!rung(5001.0, 0, false, 1.0).meets_slo());
        assert!(!rung(10.0, 1, false, 1.0).meets_slo());
        assert!(!rung(10.0, 0, true, 1.0).meets_slo());
        let rungs = [
            rung(100.0, 0, false, 1200.0),
            rung(900.0, 0, false, 1500.0),
            rung(6e3, 0, false, 1700.0),
        ];
        assert_eq!(slo_rate(&rungs), 1500.0);
        assert_eq!(slo_rate(&rungs[2..]), 0.0);
    }
}
