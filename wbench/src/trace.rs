//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through [`Tracer::time`].
//! With tracing off that is one `Instant` pair and nothing else, so the
//! end-to-end run and the traced run share one code path and differ only in
//! whether a [`Span`] is pushed. Spans are kept in memory and written out
//! when the run ends; nothing is formatted or flushed inside a timed region.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Life-cycle phase a span was recorded in (see the README's phase table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Window,
    Probe,
    Check,
    Durability,
}

impl Phase {
    pub const ALL: [Phase; 5] = [
        Phase::Setup,
        Phase::Window,
        Phase::Probe,
        Phase::Check,
        Phase::Durability,
    ];
}

/// Cycle id of spans that belong to no cycle.
pub const NO_CYCLE: i64 = -1;

/// One recorded interval. `parent` indexes into the tracer's span list;
/// `cycle` is the life-cycle cycle the span belongs to, the identifier that
/// ties the spans of one request together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cycle: i64,
    pub phase: Phase,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    phase: Phase,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            phase: Phase::Setup,
        }
    }

    /// Phase stamped on every span opened from now on.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Open a grouping span (phase, cycle, query round). Returns a token for
    /// [`Tracer::exit`]; a no-op when tracing is off.
    pub fn enter(&mut self, name: &'static str, cycle: i64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            cycle,
            phase: self.phase,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        let Some(idx) = token else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "span exits must nest");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Time one call. The returned duration is what the end-to-end metrics
    /// are built from, traced or not.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        cycle: i64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let token = self.enter(name, cycle);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.exit(token);
        (out, elapsed)
    }

    /// Time a call whose span name depends on its outcome (a `plan` call is
    /// cold or incremental only once it has returned).
    pub fn time_classified<T>(
        &mut self,
        cycle: i64,
        f: impl FnOnce() -> (T, &'static str),
    ) -> (T, Duration) {
        let token = self.enter("", cycle);
        let start = Instant::now();
        let (out, name) = f();
        let elapsed = start.elapsed();
        self.exit(token);
        if let Some(idx) = token {
            self.spans[idx].name = name;
        }
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover. Children never overlap (one thread, strictly nested), so the
    /// self times of a tree sum to its root's duration.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Durations (ms) of every `name` span recorded in one of `phases`, in
    /// recording order.
    pub fn ms(&self, name: &str, phases: &[Phase]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && phases.contains(&s.phase))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-cycle sums (ms) of the `name` spans of one phase. A cycle
    /// without such a span has no entry.
    pub fn per_cycle_ms(&self, name: &str, phase: Phase) -> BTreeMap<i64, f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.phase == phase)
        {
            *out.entry(s.cycle).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
        }
        out
    }

    /// Total self time (ms) in one phase of all spans whose name starts with
    /// `prefix`.
    pub fn self_ms(&self, prefix: &str, phase: Phase) -> f64 {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.phase == phase && s.name.starts_with(prefix))
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("cycle", Json::Num(s.cycle as f64)),
                        ("phase", Json::Str(format!("{:?}", s.phase))),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("run", NO_CYCLE);
        t.set_phase(Phase::Window);
        for c in 0..3 {
            let cyc = t.enter("cycle", c);
            t.time("warehouse.ingest", c, || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
            t.time("warehouse.run_epoch", c, || {
                std::hint::black_box((0..5000).sum::<u64>())
            });
            t.exit(cyc);
        }
        t.exit(root);
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, t.spans()[0].dur_ns());
        assert_eq!(t.ms("warehouse.ingest", &[Phase::Window]).len(), 3);
        assert_eq!(
            t.per_cycle_ms("warehouse.run_epoch", Phase::Window).len(),
            3
        );
        assert!(t.ms("warehouse.ingest", &[Phase::Setup]).is_empty());
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() > 0 || d.is_zero());
        assert!(t.spans().is_empty());
    }
}
