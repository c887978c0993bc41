//! In-memory spans and the statistics the report is built from.
//!
//! A span is `(op id, name, start, end, parent)`. Spans stay in memory
//! during a run and are written out once it ends. A span's self time is
//! its duration minus the durations of its children. Children are either
//! nested in the parent's interval or, for the "shadow" calls that re-run
//! one inner layer on its own (`Db::get` under `SecondaryDb::get`), placed
//! right after it; both are subtracted the same way, so the self times of
//! one op's spans add up to its root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// What [`Tracer::begin`] returns for a child span it skips.
const SKIPPED: SpanId = SpanId::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// `layer.step`, e.g. `core.get`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    /// Whether child spans are recorded. When false, only root spans
    /// are, so timing an op with and without its children gives the
    /// cost of the children's instruments.
    pub children: bool,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            children: true,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; a child span is skipped unless `children` is set.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if parent.is_some() && !self.children {
            return SKIPPED;
        }
        let start = self.now();
        self.spans.push(Span {
            op,
            name,
            start,
            end: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span.
    pub fn end(&mut self, id: SpanId) {
        if id != SKIPPED {
            self.spans[id].end = self.now();
        }
    }

    /// Record an already measured interval.
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            op,
            name,
            start: at(start),
            end: at(end),
            parent: None,
        };
        self.spans.push(span);
    }

    /// Self time of every span, by index. It is negative when a shadow
    /// call outlasted the call it stands inside of.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur() as i64;
            }
        }
        own
    }

    /// Write every span as a tab-separated line.
    pub fn write_tsv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "span\top\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile of `v` (sorted in place), in the input unit.
pub fn percentile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(mut v: Vec<u64>) -> f64 {
    percentile(&mut v, 50.0) / 1e3
}

/// Durations (ns) of the spans named `name`, grouped by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(s.dur());
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_shadows() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin(1, "op.get", None);
        let core = t.begin(1, "core.get", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(core);
        t.end(root);
        let shadow = t.begin(1, "lsm.get", Some(core));
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(shadow);
        let own = t.self_times();
        let total: i64 = own.iter().sum();
        assert_eq!(total, t.spans[root].dur() as i64);
        assert!(own[core] < t.spans[core].dur() as i64);
    }

    #[test]
    fn skipped_children_record_only_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.children = false;
        let root = t.begin(1, "op.get", None);
        let core = t.begin(1, "core.get", Some(root));
        let shadow = t.begin(1, "lsm.get", Some(core));
        t.end(shadow);
        t.end(core);
        t.end(root);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.self_times(), vec![t.spans[root].dur() as i64]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut [7], 95.0), 7.0);
    }
}
