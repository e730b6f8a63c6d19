//! How many helper threads a monitor spawns, read from outside the
//! runtime: the names of this process's threads under `/proc/self/task`
//! (Linux only). A `threads(n)` monitor runs its lanes on the calling
//! thread and exactly `n − 1` helpers, for its whole life, and none once
//! dropped, whatever state the drop finds it in — a detached or leaked
//! thread fails here, where the runtime's own tests could not see it.
//!
//! The tests take one lock each, so no other test's pool is counted.
#![cfg(target_os = "linux")]

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use flowrank_monitor::{BatchSource, Chunked, Collect, ControllerSpec, Monitor, SamplerSpec};
use flowrank_net::{PacketBatch, PacketRecord, Timestamp};
use flowrank_trace::Workload;

static ONE_POOL_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_POOL_AT_A_TIME
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Threads of this process whose name starts `flowrank-` (the kernel keeps
/// 15 bytes of a name, so `flowrank-worker-3` reads `flowrank-worker`).
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|task| {
            let comm = task.as_ref().map(|task| task.path().join("comm"));
            comm.is_ok_and(|comm| {
                std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with("flowrank-"))
            })
        })
        .count()
}

/// The pool-thread count once it reads `expected`, or whatever it reads
/// after two seconds: a joined thread can outlive its join in `/proc` for
/// a moment.
fn settled(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let count = pool_threads();
        if count == expected || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn trace() -> Vec<PacketRecord> {
    Workload::flash_crowd().scaled(10.0).synthesize(11)
}

fn monitor(threads: usize) -> Monitor {
    Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .rates(&[0.01, 0.1])
        .runs(3)
        .controller(ControllerSpec::model_driven())
        .bin_length(Timestamp::from_secs_f64(60.0))
        .seed(11)
        .threads(threads)
        .build()
}

#[test]
fn a_threads_n_monitor_runs_exactly_n_minus_one_helpers() {
    let _pool = exclusive();
    for threads in [1, 2, 3, 5] {
        let monitor = monitor(threads);
        let expected = threads - 1;
        assert_eq!(settled(expected), expected, "threads({threads})");
        drop(monitor);
        assert_eq!(settled(0), 0, "threads({threads}) dropped");
    }
}

#[test]
fn the_pool_is_spawned_once_and_outlives_every_call() {
    let _pool = exclusive();
    let packets = trace();
    let mut monitor = monitor(3);
    for half in packets.chunks(packets.len().div_ceil(2)) {
        monitor.push_batch_into(&PacketBatch::from_records(half), &mut Collect::new());
        assert_eq!(pool_threads(), 2, "after a push");
    }
    monitor.finish_into(&mut Collect::new());
    assert_eq!(pool_threads(), 2, "after the finish");
    drop(monitor);
    assert_eq!(settled(0), 0);
}

#[test]
fn dropping_a_monitor_mid_bin_joins_every_pool_thread() {
    let _pool = exclusive();
    let packets = trace();
    // All but the last packet of a first bin several buffers long: full
    // buffers have been published, the last may still be in flight, and the
    // rest is unshipped, when the monitor drops.
    let bin = Timestamp::from_secs_f64(60.0);
    let first_bin = packets
        .iter()
        .take_while(|packet| packet.timestamp.bin_index(bin) == 0)
        .count();
    assert!(first_bin > 3 * 4096, "{first_bin} packets in the first bin");
    let head = PacketBatch::from_records(&packets[..first_bin - 1]);
    let mut monitor = monitor(4);
    monitor.push_batch_into(&head, &mut Collect::new());
    drop(monitor);
    assert_eq!(settled(0), 0);
}

#[test]
fn a_poisoned_monitor_joins_every_pool_thread_on_drop() {
    let _pool = exclusive();
    let batch = PacketBatch::from_records(&trace());
    let mut monitor = Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .bin_length(Timestamp::from_secs_f64(60.0))
        .seed(11)
        .threads(3)
        .inject_lane_panic_after(1000)
        .build();
    let mut source = Chunked::new(BatchSource::new(&batch), 512);
    monitor
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("the injected lane panic surfaces as an error");
    assert!(monitor.is_poisoned());
    drop(monitor);
    assert_eq!(settled(0), 0);
}
