//! Where tenant-tagged windows come from.
//!
//! A [`FleetSource`] is the fleet-level analogue of the monitor's
//! `PacketSource`: it yields [`TaggedBatch`]es — packets decoded and
//! key-derived exactly once, each carrying its tenant tag — until the
//! stream ends. [`Fleet::drive`](crate::Fleet::drive) pulls a source to
//! exhaustion.
//!
//! One implementation ships here: [`FleetStream`] (from `flowrank-trace`),
//! the synthetic fleet scenario — per-tenant catalog workloads merged window
//! by window. A live record feed is a source too: `flowrank-serve` cuts its
//! tenant-tagged ndjson into 512-record windows behind this trait, and ends
//! the stream on a stop signal or a read error.

use flowrank_net::TaggedBatch;
use flowrank_trace::FleetStream;

/// A pull-based stream of tenant-tagged packet windows.
///
/// The contract mirrors the monitor's packet sources: within one tenant,
/// timestamps are non-decreasing across successive windows (each tenant's
/// monitor enforces its own timestamp policy); the borrow returned by
/// [`FleetSource::next_tagged`] is only valid until the next call.
pub trait FleetSource {
    /// The next tenant-tagged window, or `None` when the stream has ended.
    fn next_tagged(&mut self) -> Option<&TaggedBatch>;
}

impl FleetSource for FleetStream {
    fn next_tagged(&mut self) -> Option<&TaggedBatch> {
        self.next_window()
    }
}

impl<S: FleetSource + ?Sized> FleetSource for &mut S {
    fn next_tagged(&mut self) -> Option<&TaggedBatch> {
        (**self).next_tagged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_stream_is_a_fleet_source() {
        let scenario = flowrank_trace::FleetScenario::new(2);
        let mut stream = scenario.stream(7);
        let source: &mut dyn FleetSource = &mut stream;
        let mut windows = 0;
        let mut packets = 0;
        while let Some(batch) = source.next_tagged() {
            windows += 1;
            packets += batch.len();
        }
        assert!(windows > 0 && packets > 0);
    }
}
