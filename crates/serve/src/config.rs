//! Daemon configuration: a hand-parsed `key = value` file.
//!
//! The workspace is std-only, so the config format is deliberately trivial:
//! one `key = value` per line, `#` comments, unknown keys rejected with the
//! line number. [`ServeConfig::example`] renders a fully commented template
//! (`flowrank-serve --example-config`).

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use flowrank_monitor::{DrivePolicy, Monitor, SamplerSpec, TopKSpec};
use flowrank_net::Timestamp;

/// Which live source the daemon drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A scenario workload replayed with wall-clock pacing
    /// ([`flowrank_trace::PacedReplay`]).
    Replay,
    /// A growing pcap file tailed in place
    /// ([`flowrank_monitor::PcapTailSource`]).
    Tail,
    /// Newline-delimited JSON records on stdin
    /// ([`flowrank_monitor::NdjsonRecordSource`]).
    Ndjson,
    /// Newline-delimited JSON records on a live TCP socket
    /// ([`crate::socket::listen`]); requires `listen = addr:port`.
    Socket,
}

/// Where per-bin reports are streamed, besides the rolling snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Snapshot only; no report stream.
    None,
    /// [`flowrank_monitor::NdjsonSink`] to `output_path`.
    Ndjson,
    /// [`flowrank_monitor::CsvSink`] to `output_path`.
    Csv,
}

/// Why a configuration failed to load.
#[derive(Debug)]
pub enum ConfigError {
    /// The file could not be read.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "cannot read config: {e}"),
            ConfigError::Parse { line, reason } => write!(f, "config line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<io::Error> for ConfigError {
    fn from(e: io::Error) -> Self {
        ConfigError::Io(e)
    }
}

/// The full daemon configuration with every default filled in.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Which source to drive.
    pub source: SourceKind,
    /// Scenario name for `source = replay` (see
    /// [`flowrank_trace::Workload::by_name`]).
    pub scenario: String,
    /// Seed for workload synthesis and the monitor's sampling RNGs.
    pub seed: u64,
    /// Replay speed: trace-seconds per wall-second; `0` replays unpaced.
    pub speed: f64,
    /// Synthesis window for the replay, in milliseconds; `0` keeps the
    /// stream's default.
    pub window_ms: u64,
    /// Capture path for `source = tail`.
    pub pcap: Option<PathBuf>,
    /// Whether the tail source waits for the capture to grow.
    pub follow: bool,
    /// `addr:port` the record listener binds for `source = socket`; port
    /// `0` picks a free port (printed on startup).
    pub listen: String,
    /// Fleet mode: host this many tenant monitors behind one slab
    /// (`flowrank-fleet`). `0` (the default) runs the single-monitor
    /// daemon; with `tenants > 0`, `source` must be `replay` (the fleet
    /// scenario) or `ndjson` (tenant-tagged records) and `threads` become
    /// fleet-level workers.
    pub tenants: u32,
    /// Per-tenant flow-table budget in fleet mode (`0` = unbounded): each
    /// tenant sheds its coldest flows back to this cap, recorded on the
    /// report's eviction trail.
    pub flow_budget: usize,
    /// Sampler template; the monitor retargets it across `rates`.
    pub sampler: SamplerSpec,
    /// Sampling-rate grid.
    pub rates: Vec<f64>,
    /// Independent runs per rate.
    pub runs: usize,
    /// Measurement-bin length in seconds.
    pub bin_secs: f64,
    /// Top-`t` boundary for the detection metric and snapshot top list.
    pub top_t: usize,
    /// Optional memory-bounded top-k backend per lane.
    pub topk: Option<TopKSpec>,
    /// Busy threads of the monitor, the calling thread included: its lanes
    /// are strided over this many shards, and all but the caller's run on
    /// helper threads (`1` = no helpers).
    pub threads: usize,
    /// Bins retained in the rolling snapshot window.
    pub retain_bins: usize,
    /// Report stream besides the snapshot.
    pub output: OutputKind,
    /// Report stream destination; `None` means stdout.
    pub output_path: Option<PathBuf>,
    /// `addr:port` to serve snapshot polls on; `None` disables the
    /// endpoint. Port `0` picks a free port (printed on startup).
    pub snapshot_listen: Option<String>,
    /// Sleep between idle polls, in milliseconds
    /// ([`DrivePolicy::idle_wait`]).
    pub idle_wait_ms: u64,
    /// Wall-clock stall threshold in seconds
    /// ([`DrivePolicy::stall_timeout`]); `0` disables the wall-time gate.
    pub stall_timeout_secs: f64,
    /// Idle-poll floor for the stall detector
    /// ([`DrivePolicy::stall_polls`]).
    pub stall_polls: u64,
    /// Stop cleanly after this many closed bins; `0` runs until the source
    /// ends or a signal arrives. The smoke-test hook.
    pub max_bins: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            source: SourceKind::Replay,
            scenario: "mixed".to_string(),
            seed: 2026,
            speed: 1.0,
            window_ms: 500,
            pcap: None,
            follow: true,
            listen: "127.0.0.1:0".to_string(),
            tenants: 0,
            flow_budget: 0,
            sampler: SamplerSpec::Random { rate: 0.1 },
            rates: vec![0.1],
            runs: 1,
            bin_secs: 60.0,
            top_t: 10,
            topk: Some(TopKSpec::SpaceSaving { capacity: 64 }),
            threads: 1,
            retain_bins: 16,
            output: OutputKind::None,
            output_path: None,
            snapshot_listen: None,
            idle_wait_ms: 1,
            stall_timeout_secs: 30.0,
            stall_polls: DrivePolicy::DEFAULT_STALL_POLLS,
            max_bins: 0,
        }
    }
}

impl ServeConfig {
    /// Loads and parses a config file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ConfigError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Parses config text: `key = value` lines, `#` comments, unknown keys
    /// rejected.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut config = ServeConfig::default();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            // Strip trailing comments too (values never contain `#`).
            let trimmed = raw.split('#').next().unwrap_or("").trim();
            if trimmed.is_empty() {
                continue;
            }
            let (key, value) = trimmed.split_once('=').ok_or_else(|| ConfigError::Parse {
                line,
                reason: format!("expected `key = value`, got `{trimmed}`"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            config
                .apply(key, value)
                .map_err(|reason| ConfigError::Parse {
                    line,
                    reason: format!("{key} = {value}: {reason}"),
                })?;
        }
        config.validate()?;
        Ok(config)
    }

    fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "source" => {
                self.source = match value {
                    "replay" => SourceKind::Replay,
                    "tail" => SourceKind::Tail,
                    "ndjson" => SourceKind::Ndjson,
                    "socket" => SourceKind::Socket,
                    other => return Err(format!("unknown source `{other}`")),
                }
            }
            "scenario" => self.scenario = value.to_string(),
            "seed" => self.seed = parse(value)?,
            "speed" => self.speed = parse(value)?,
            "window_ms" => self.window_ms = parse(value)?,
            "pcap" => self.pcap = Some(PathBuf::from(value)),
            "follow" => self.follow = parse_bool(value)?,
            "listen" => self.listen = value.to_string(),
            "tenants" => self.tenants = parse(value)?,
            "flow_budget" => self.flow_budget = parse(value)?,
            "sampler" => self.sampler = parse_sampler(value)?,
            "rate" => self.rates = vec![parse(value)?],
            "rates" => {
                self.rates = value
                    .split(',')
                    .map(|r| parse(r.trim()))
                    .collect::<Result<Vec<f64>, _>>()?;
                if self.rates.is_empty() {
                    return Err("at least one rate".to_string());
                }
            }
            "runs" => self.runs = parse(value)?,
            "bin_secs" => self.bin_secs = parse(value)?,
            "top_t" => self.top_t = parse(value)?,
            "topk" => self.topk = parse_topk(value)?,
            "threads" => self.threads = parse(value)?,
            "retain_bins" => self.retain_bins = parse(value)?,
            "output" => {
                self.output = match value {
                    "none" => OutputKind::None,
                    "ndjson" => OutputKind::Ndjson,
                    "csv" => OutputKind::Csv,
                    other => return Err(format!("unknown output `{other}`")),
                }
            }
            "output_path" => {
                self.output_path = (value != "-").then(|| PathBuf::from(value));
            }
            "snapshot_listen" => self.snapshot_listen = Some(value.to_string()),
            "idle_wait_ms" => self.idle_wait_ms = parse(value)?,
            "stall_timeout_secs" => self.stall_timeout_secs = parse(value)?,
            "stall_polls" => self.stall_polls = parse(value)?,
            "max_bins" => self.max_bins = parse(value)?,
            other => return Err(format!("unknown key `{other}`")),
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let fail = |reason: &str| {
            Err(ConfigError::Parse {
                line: 0,
                reason: reason.to_string(),
            })
        };
        if self.source == SourceKind::Tail && self.pcap.is_none() {
            return fail("source = tail requires `pcap = <path>`");
        }
        if self.tenants > 0 && matches!(self.source, SourceKind::Tail | SourceKind::Socket) {
            return fail("fleet mode (`tenants > 0`) supports source = replay or ndjson");
        }
        // Fleet replay runs the fleet scenario; the catalog `scenario` key
        // only applies to the single-monitor daemon.
        if self.tenants == 0
            && self.source == SourceKind::Replay
            && flowrank_trace::Workload::by_name(&self.scenario).is_none()
        {
            return Err(ConfigError::Parse {
                line: 0,
                reason: format!(
                    "unknown scenario `{}` (known: {})",
                    self.scenario,
                    flowrank_trace::Workload::catalog()
                        .iter()
                        .map(|w| w.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        if self.bin_secs <= 0.0 || self.bin_secs.is_nan() {
            return fail("bin_secs must be positive");
        }
        if self.runs == 0 {
            return fail("runs must be at least 1");
        }
        Ok(())
    }

    /// The drive policy the config describes: serving always skips
    /// malformed records (counted, budget-bounded) — a daemon must not die
    /// to one bad line on a live feed.
    pub(crate) fn drive_policy(&self) -> DrivePolicy {
        DrivePolicy::resilient()
            .stall_polls(self.stall_polls)
            .stall_timeout(Duration::from_secs_f64(self.stall_timeout_secs.max(0.0)))
            .idle_wait(Duration::from_millis(self.idle_wait_ms))
    }

    /// The monitor template the config describes — also the per-tenant
    /// template in fleet mode (where the fleet overrides `threads` to 1
    /// per tenant and parallelises across tenants instead).
    pub(crate) fn monitor_builder(&self) -> flowrank_monitor::MonitorBuilder {
        let mut builder = Monitor::builder()
            .sampler(self.sampler)
            .rates(&self.rates)
            .runs(self.runs)
            .bin_length(Timestamp::from_secs_f64(self.bin_secs))
            .top_t(self.top_t)
            .seed(self.seed)
            .threads(self.threads.max(1))
            .drive_policy(self.drive_policy());
        if let Some(topk) = &self.topk {
            builder = builder.topk(*topk);
        }
        builder
    }

    /// Builds the monitor the config describes.
    pub fn monitor(&self) -> Monitor {
        self.monitor_builder().build()
    }

    /// A fully commented example config (printed by
    /// `flowrank-serve --example-config`).
    pub fn example() -> &'static str {
        "\
# flowrank-serve configuration. One `key = value` per line, `#` comments.

# Source: replay (paced scenario), tail (growing pcap), ndjson (stdin),
# socket (live TCP ndjson listener).
source = replay
scenario = mixed        # heavy-tail | flash-crowd | ddos-flood | port-scan | rank-churn | mixed
seed = 2026
speed = 60              # trace-seconds per wall-second; 0 = as fast as possible
window_ms = 500         # replay chunk granularity

# source = tail
# pcap = capture.pcap
# follow = true

# source = socket
# listen = 127.0.0.1:0  # port 0 picks a free port (printed on startup)

# ndjson lines (stdin, socket, fleet) are at most 64 KiB — fixed, not a knob:
# a longer line is skipped unbuffered and, like a line that is not UTF-8,
# counts as one malformed record.

# Fleet mode: host N tenant monitors behind one slab (flowrank-fleet).
# Source must be replay (fleet scenario) or ndjson (tenant-tagged records:
# each line may carry an extra `tenant` field).
# tenants = 1000
# flow_budget = 4096    # per-tenant flow-table cap; 0 = unbounded

# Monitor shape.
sampler = random        # random | periodic | stratified | flow | smart:<threshold>
rates = 0.01, 0.1
runs = 3
bin_secs = 60
top_t = 10
topk = space-saving:64  # none | exact | sorted-list:<cap> | space-saving:<cap>
threads = 1             # busy threads, the caller included (fleet mode: fleet workers)

# Serving state.
retain_bins = 16
snapshot_listen = 127.0.0.1:0   # port 0 picks a free port; omit to disable
output = none           # none | ndjson | csv (per-bin report stream)
# output_path = -       # `-` = stdout

# Liveness.
idle_wait_ms = 1
stall_timeout_secs = 30 # abort if the source delivers nothing for this long
stall_polls = 8
max_bins = 0            # >0: exit cleanly after N bins (smoke tests)
"
    }
}

fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e| format!("{e}"))
}

fn parse_bool(value: &str) -> Result<bool, String> {
    match value {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(format!("expected true/false, got `{other}`")),
    }
}

fn parse_sampler(value: &str) -> Result<SamplerSpec, String> {
    // The rate parameter is a placeholder: the monitor retargets the
    // template across the configured rate grid.
    let (name, arg) = match value.split_once(':') {
        Some((name, arg)) => (name.trim(), Some(arg.trim())),
        None => (value, None),
    };
    match (name, arg) {
        ("random", None) => Ok(SamplerSpec::Random { rate: 0.1 }),
        ("periodic", None) => Ok(SamplerSpec::Periodic {
            rate: 0.1,
            random_phase: true,
        }),
        ("stratified", None) => Ok(SamplerSpec::Stratified { rate: 0.1 }),
        ("flow", None) => Ok(SamplerSpec::Flow { rate: 0.1 }),
        ("smart", Some(threshold)) => Ok(SamplerSpec::Smart {
            threshold: parse(threshold)?,
        }),
        ("smart", None) => Err("smart needs a threshold: `smart:1000`".to_string()),
        (other, _) => Err(format!("unknown sampler `{other}`")),
    }
}

fn parse_topk(value: &str) -> Result<Option<TopKSpec>, String> {
    let (name, arg) = match value.split_once(':') {
        Some((name, arg)) => (name.trim(), Some(arg.trim())),
        None => (value, None),
    };
    let capacity = |arg: Option<&str>| -> Result<usize, String> { arg.map_or(Ok(64), parse) };
    match name {
        "none" => Ok(None),
        "exact" => Ok(Some(TopKSpec::Exact)),
        "sorted-list" => Ok(Some(TopKSpec::SortedList {
            capacity: capacity(arg)?,
        })),
        "space-saving" => Ok(Some(TopKSpec::SpaceSaving {
            capacity: capacity(arg)?,
        })),
        other => Err(format!("unknown topk backend `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_the_example() {
        let config = ServeConfig::parse(ServeConfig::example()).expect("example parses");
        assert_eq!(config.source, SourceKind::Replay);
        assert_eq!(config.scenario, "mixed");
        assert_eq!(config.rates, vec![0.01, 0.1]);
        assert_eq!(config.runs, 3);
        assert_eq!(config.topk, Some(TopKSpec::SpaceSaving { capacity: 64 }));
        assert_eq!(config.snapshot_listen.as_deref(), Some("127.0.0.1:0"));
    }

    #[test]
    fn unknown_keys_and_bad_values_carry_line_numbers() {
        let err = ServeConfig::parse("seed = 1\nnonsense = 2\n").unwrap_err();
        match err {
            ConfigError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("unknown key"), "{reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let err = ServeConfig::parse("seed = banana\n").unwrap_err();
        assert!(matches!(err, ConfigError::Parse { line: 1, .. }));
    }

    #[test]
    fn tail_source_requires_a_capture_path() {
        let err = ServeConfig::parse("source = tail\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("pcap"), "{text}");
        assert!(ServeConfig::parse("source = tail\npcap = x.pcap\n").is_ok());
    }

    #[test]
    fn unknown_scenarios_list_the_catalog() {
        let err = ServeConfig::parse("scenario = nope\n").unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("mixed") && text.contains("port-scan"),
            "{text}"
        );
    }

    #[test]
    fn policy_reflects_the_liveness_keys() {
        let config =
            ServeConfig::parse("idle_wait_ms = 7\nstall_timeout_secs = 2.5\nstall_polls = 11\n")
                .expect("parses");
        let policy = config.drive_policy();
        assert_eq!(policy.idle_wait, Duration::from_millis(7));
        assert_eq!(policy.stall_timeout, Duration::from_secs_f64(2.5));
        assert_eq!(policy.stall_polls, 11);
        assert!(policy.skip_malformed, "serving skips malformed records");
    }
}
