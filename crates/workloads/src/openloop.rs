//! Open-loop arrival generation: virtual-time request arrivals from a
//! large population of client sessions.
//!
//! A closed-loop driver (every thread fires its next op the instant the
//! previous one completes) measures the server at 100% utilization and
//! hides queueing delay — the failure mode tail-latency papers warn
//! about. The service bench instead models an *open* loop: arrivals are
//! generated independently of service completions, at a configured mean
//! rate, from a session population large enough (2²⁰ and up) that no
//! individual session throttles the stream. Executors idle on their
//! virtual clocks until the next arrival is due, so queueing delay —
//! and therefore p99/p999 — emerges from the arrival/service race
//! deterministically.
//!
//! Inter-arrival gaps are integer uniform jitter on `[0, 2·mean]`
//! (mean-preserving), not exponential draws: the generator stays
//! float-free, so the whole arrival schedule — and every latency
//! percentile derived from it — is bit-exact across platforms.

use crate::Rng64;

/// Open-loop stream parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Client session population; sessions only label requests (the
    /// service treats them as opaque), so "a million concurrent clients"
    /// is a labeling of the arrival stream, not a million tasks.
    pub sessions: u64,
    /// Mean virtual-time gap between consecutive arrivals, ns. The
    /// offered load is `1e9 / mean_gap_ns` requests per virtual second
    /// across the whole service.
    pub mean_gap_ns: u64,
    pub seed: u64,
}

impl OpenLoopConfig {
    /// A million-session population at the given arrival gap.
    pub fn million(mean_gap_ns: u64, seed: u64) -> Self {
        Self {
            sessions: 1 << 20,
            mean_gap_ns,
            seed,
        }
    }
}

/// One arrival: which session fires, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time, ns since the stream's origin. Nondecreasing
    /// across successive [`ArrivalGen::next_arrival`] calls.
    pub at_ns: u64,
    /// Session id in `0..sessions`.
    pub session: u64,
}

/// Deterministic arrival-stream generator.
pub struct ArrivalGen {
    cfg: OpenLoopConfig,
    rng: Rng64,
    clock_ns: u64,
}

impl ArrivalGen {
    pub fn new(cfg: OpenLoopConfig) -> Self {
        assert!(cfg.sessions >= 1);
        Self {
            rng: Rng64::new(cfg.seed ^ 0xa110_fa11_5eed),
            cfg,
            clock_ns: 0,
        }
    }

    /// The next arrival. Gaps are uniform on `[0, 2·mean_gap_ns]`, so
    /// bursts (gap 0) and lulls both occur and the long-run rate is
    /// exactly `1/mean_gap_ns`.
    pub fn next_arrival(&mut self) -> Arrival {
        let gap = self.rng.below(2 * self.cfg.mean_gap_ns + 1);
        self.clock_ns += gap;
        Arrival {
            at_ns: self.clock_ns,
            session: self.rng.below(self.cfg.sessions),
        }
    }

    /// Generate the first `n` arrivals as a schedule.
    pub fn take(mut self, n: usize) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            sessions: 1 << 20,
            mean_gap_ns: 150,
            seed: 0xfeed,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_monotonic() {
        let a = ArrivalGen::new(cfg()).take(500);
        let b = ArrivalGen::new(cfg()).take(500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn rate_matches_the_configured_mean() {
        let n = 20_000u64;
        let sched = ArrivalGen::new(cfg()).take(n as usize);
        let span = sched.last().unwrap().at_ns;
        let mean = span / n;
        // Uniform jitter: the sample mean must sit near mean_gap_ns.
        assert!(
            (130..=170).contains(&mean),
            "mean inter-arrival {mean}ns, configured 150ns"
        );
    }

    #[test]
    fn sessions_stay_in_range_and_spread() {
        let c = cfg();
        let sched = ArrivalGen::new(c).take(4_000);
        let mut seen = std::collections::HashSet::new();
        for a in &sched {
            assert!(a.session < c.sessions);
            seen.insert(a.session);
        }
        // 4k draws from a 2^20 population: collisions are rare, so the
        // distinct count stays close to the draw count.
        assert!(seen.len() > 3_900, "only {} distinct sessions", seen.len());
    }
}
