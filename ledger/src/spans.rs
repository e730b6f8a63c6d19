//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's side of every layer boundary —
//! around calls into public functions — kept in memory while the run
//! measures, and written as one JSON object per line when it ends. Each
//! span carries the count of units (packets, records, reports) that crossed
//! the boundary, so ratios are taken where the work happens.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::{self, Value};

/// One recorded interval. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier, unique within the run.
    pub id: u32,
    /// Identifier of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Index of the pass the span belongs to.
    pub pass: u32,
    /// Layer-qualified name (`monitor.drive`, `replica.classify`, …).
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Units that crossed the boundary during the span.
    pub count: u64,
}

/// Records spans against one epoch. Not thread-safe by design: other
/// threads collect `(start, end)` pairs and the owner adds them afterwards.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Starts a recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the pass index stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.open_at(name, Instant::now())
    }

    /// Opens a span that started at `start` — for a call that was timed
    /// first and is recorded once it has returned.
    pub fn open_at(&mut self, name: &'static str, start: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.nanos(start);
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            pass: self.pass,
            name: Cow::Borrowed(name),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, count: u64) {
        self.close_at(id, Instant::now(), count);
    }

    /// Closes the innermost open span, which must be `id`, as of `end`.
    pub fn close_at(&mut self, id: u32, end: Instant, count: u64) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let now = self.nanos(end);
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Adds an already-measured interval as a child of the innermost open
    /// span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            pass: self.pass,
            name: Cow::Borrowed(name),
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            count,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Checks that `spans` form a forest: ids are unique, every parent exists
/// and precedes its child, and each child's interval lies inside its
/// parent's.
pub fn check_forest(spans: &[Span]) -> Result<(), String> {
    for (index, span) in spans.iter().enumerate() {
        if span.id as usize != index + 1 {
            return Err(format!("span {} is at position {}", span.id, index + 1));
        }
        if span.end_ns < span.start_ns {
            return Err(format!("span {} ends before it starts", span.id));
        }
        if span.parent == 0 {
            continue;
        }
        if span.parent >= span.id {
            return Err(format!("span {} names parent {}", span.id, span.parent));
        }
        let parent = &spans[span.parent as usize - 1];
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                span.id,
                span.name,
                span.start_ns,
                span.end_ns,
                parent.id,
                parent.name,
                parent.start_ns,
                parent.end_ns
            ));
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Children recorded from two threads may overlap, so
/// the covered part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize - 1].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes `spans` to a file, creating its directory.
pub fn write_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_ndjson(&mut out, spans)?;
    out.flush()
}

/// Writes `spans` as one JSON object per line.
pub fn write_ndjson(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for span in spans {
        let line = Value::obj([
            ("id", Value::Num(span.id as f64)),
            ("parent", Value::Num(span.parent as f64)),
            ("pass", Value::Num(span.pass as f64)),
            ("name", Value::Str(span.name.to_string())),
            ("start_ns", Value::Num(span.start_ns as f64)),
            ("end_ns", Value::Num(span.end_ns as f64)),
            ("count", Value::Num(span.count as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    Ok(())
}

/// Reads a span file back (used by the smoke test).
pub fn parse_ndjson(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let value = json::parse(line)?;
            let num = |key: &str| {
                value
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("span line without `{key}`: {line}"))
            };
            Ok(Span {
                id: num("id")? as u32,
                parent: num("parent")? as u32,
                pass: num("pass")? as u32,
                name: value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("span line without `name`: {line}"))?
                    .to_string()
                    .into(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                count: num("count")? as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            name: format!("s{id}").into(),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn recorder_nests_open_spans_and_leaves() {
        let mut rec = Recorder::new();
        rec.set_pass(3);
        let root = rec.open("pass");
        let call = rec.open("monitor.drive");
        let t0 = Instant::now();
        rec.leaf("source.next_chunk", t0, Instant::now(), 4096);
        rec.close(call, 1);
        rec.close(root, 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 2)
        );
        assert!(spans.iter().all(|s| s.pass == 3));
        assert_eq!(spans[2].count, 4096);
        check_forest(spans).expect("recorded spans are a forest");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 (a second thread): the union is [10, 60].
            span(3, 1, 30, 60),
            span(4, 2, 10, 20),
        ];
        check_forest(&spans).unwrap();
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn a_child_outside_its_parent_or_an_unknown_parent_is_rejected() {
        let escaping = vec![span(1, 0, 10, 20), span(2, 1, 15, 25)];
        assert!(check_forest(&escaping)
            .unwrap_err()
            .contains("leaves its parent"));
        let orphan = vec![span(1, 7, 0, 1)];
        assert!(check_forest(&orphan)
            .unwrap_err()
            .contains("names parent 7"));
    }

    #[test]
    fn span_files_round_trip() {
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40)];
        let mut bytes = Vec::new();
        write_ndjson(&mut bytes, &spans).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_ndjson(&text), Ok(spans));
    }
}
