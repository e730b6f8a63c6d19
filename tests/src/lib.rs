//! Helper library for flowrank integration tests (shared fixtures).

use flowrank_monitor::{BinReport, Collect, Monitor};
use flowrank_net::PacketBatch;

/// Every report of `batch` pushed whole into `monitor`, final bin closed:
/// [`Monitor::push_batch_into`] and [`Monitor::finish_into`] into a
/// [`Collect`].
pub fn push_whole(monitor: &mut Monitor, batch: &PacketBatch) -> Vec<BinReport> {
    let mut sink = Collect::new();
    monitor.push_batch_into(batch, &mut sink);
    monitor.finish_into(&mut sink);
    sink.reports
}
