//! The benchmark's own span recorder.
//!
//! The traced pass brackets every call the benchmark makes into a layer's
//! public functions with a span `{layer, name, start, end, parent, request}`.
//! Spans live in memory until the workload ends; then the recorder computes
//! each layer's self time (a span's duration minus the part its child spans
//! cover) and writes a Chrome trace-event file. Nothing here touches the
//! library's `fpsa::obs` tracer: these spans come from the benchmark's side
//! of the API boundary, so they exist for every layer whether or not the
//! library instruments it.
//!
//! One recorder belongs to one thread (the workload's client/generator
//! thread, the only benchmark thread that calls into the library).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans written to the trace file; the rest are counted in its metadata.
/// Aggregates always cover every span.
const TRACE_FILE_SPANS: usize = 20_000;

const NO_PARENT: u32 = u32::MAX;

struct SpanRec {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Handle returned by [`Recorder::enter`]; pass it back to [`Recorder::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off. Off, `enter`/`exit` cost one branch.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "recorder toggled inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span. `request` is the
    /// operation id the span belongs to (0 when it serves no single one).
    pub fn enter(&mut self, layer: &'static str, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Call `f` inside a span and return its result with its wall time,
    /// which is measured whether or not the recorder is on.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.enter(layer, name, request);
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        self.exit(open);
        (result, took)
    }

    /// Start the traced pass: recording on, under one `bench` root span
    /// whose self time is the harness's own.
    pub fn open_root(&mut self) -> Open {
        self.set_enabled(true);
        self.enter("bench", "traced-pass", 0)
    }

    pub fn close_root(&mut self, root: Open) {
        self.exit(root);
        self.set_enabled(false);
    }

    /// Share of the root spans' wall that is self time of a layer other
    /// than `bench`: how much of the traced pass the layers account for.
    pub fn layer_self_share(&self) -> f64 {
        let layers: u64 = self
            .layer_self_ns()
            .iter()
            .filter(|(layer, _)| **layer != "bench")
            .map(|(_, ns)| ns)
            .sum();
        layers as f64 / self.root_ns().max(1) as f64
    }

    /// Self time per layer, in nanoseconds: each span's duration minus its
    /// direct children's, summed by the span's layer.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children);
            *by_layer.entry(span.layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Mean duration in nanoseconds of the spans named `layer.name`.
    pub fn mean_ns(&self, layer: &str, name: &str) -> f64 {
        let (mut count, mut total) = (0u64, 0u64);
        for span in &self.spans {
            if span.layer == layer && span.name == name {
                count += 1;
                total += span.end_ns - span.start_ns;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Total duration of root spans (those with no parent), nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as Chrome trace-event JSON (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut json = String::from("{\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().take(TRACE_FILE_SPANS).enumerate() {
            if id > 0 {
                json.push_str(",\n");
            }
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                span.layer,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request
            );
        }
        let _ = write!(
            json,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}}}}\n",
            self.spans.len(),
            self.spans.len().min(TRACE_FILE_SPANS)
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        let root = rec.enter("bench", "round", 0);
        let a = rec.enter("core", "compile", 1);
        let b = rec.enter("sim", "bind", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(b);
        rec.exit(a);
        rec.exit(root);
        let by_layer = rec.layer_self_ns();
        assert!(by_layer["sim"] >= 2_000_000);
        assert!(by_layer["core"] < by_layer["sim"]);
        assert_eq!(by_layer.values().sum::<u64>(), rec.root_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new();
        let open = rec.enter("core", "compile", 1);
        rec.exit(open);
        assert_eq!(rec.len(), 0);
    }
}
