//! The host-speed probe: a fixed piece of work with no flowrank code in it,
//! timed between passes, by which a run's timings are scaled to a reference
//! host speed.
//!
//! The calibration box shares its cores and memory with other guests. The
//! same binary on the same input runs 10–40 % slower for seconds or minutes
//! at a time, and no statistic of a run's own passes sees through a stretch
//! that outlasts the run. The probe does: over a run, the median time of a
//! chain of dependent loads through a table far larger than the caches
//! follows the run's median pass time (correlation 0.87–0.97 over ten runs
//! of each workload). So the timings of a measured run's passes are divided
//! by the run's *slowdown* — the probe's median time over its reference
//! time — which takes the host's share out and leaves the program's.

use std::time::{Duration, Instant};

use crate::stats;

/// Table entries: 8 MiB of `u32`, several times the last-level cache share a
/// guest of this box can count on.
const ENTRIES: usize = 1 << 21;

/// Dependent loads per sample: about 5 ms, long enough to time, short
/// enough that four samples a second cost a run 2 %.
const HOPS: u32 = 30_000;

/// Nanoseconds per hop at which the slowdown is 1: the median over the
/// calibration record's runs. Only the ratio between two results matters;
/// on another host every result is off by one common factor.
pub const REFERENCE_HOP_NS: f64 = 165.0;

/// The least time between two samples.
const INTERVAL: Duration = Duration::from_millis(250);

/// The probe and the samples it has taken.
#[derive(Debug)]
pub struct HostProbe {
    /// One cycle through every entry (Sattolo's shuffle of the identity),
    /// so a chain of any length never revisits a cached line early.
    table: Vec<u32>,
    at: usize,
    last: Option<Instant>,
    samples_ns: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Builds the table: the same one in every run.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x0139_408D_CBBF_7A44u64;
        for i in (1..ENTRIES).rev() {
            // xorshift64; the choice among i (not i + 1) earlier places is
            // what makes the permutation a single cycle.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            table.swap(i, (state % i as u64) as usize);
        }
        HostProbe {
            table,
            at: 0,
            last: None,
            samples_ns: Vec::with_capacity(1 << 10),
        }
    }

    /// Takes one sample now.
    pub fn sample(&mut self) {
        let start = Instant::now();
        for _ in 0..HOPS {
            self.at = self.table[self.at] as usize;
        }
        let end = Instant::now();
        self.samples_ns
            .push((end - start).as_nanos() as f64 / f64::from(HOPS));
        self.last = Some(end);
    }

    /// Takes a sample unless the last one is less than a quarter of a second
    /// old: called after every pass, it samples evenly in time whatever the
    /// length of a pass.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// The slowdown over the samples taken: their median time per hop over
    /// the reference. 1 when there is no sample.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.samples_ns).map_or(1.0, |ns| ns / REFERENCE_HOP_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_entry() {
        let probe = HostProbe::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = probe.table[at] as usize;
            steps += 1;
            if at == 0 || steps > ENTRIES {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut probe = HostProbe::new();
        assert_eq!(probe.slowdown(), 1.0);
        probe.samples_ns.extend([
            REFERENCE_HOP_NS * 3.0,
            REFERENCE_HOP_NS * 1.5,
            REFERENCE_HOP_NS,
        ]);
        assert_eq!(probe.slowdown(), 1.5);
    }

    #[test]
    fn ticks_closer_than_the_interval_take_one_sample() {
        let mut probe = HostProbe::new();
        probe.tick();
        probe.tick();
        assert_eq!(probe.samples_ns.len(), 1);
        assert!(probe.samples_ns[0] > 0.0);
    }
}
