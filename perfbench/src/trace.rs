//! In-memory span recorder. Spans are recorded only by the benchmark's
//! own code, around each public call it makes into the block store; the
//! program itself carries no tracing. A disabled tracer records nothing.

use std::io::Write;
use std::time::Instant;

/// Span names, `layer.call`. The layer prefix is the repository module the
/// call enters; `bench` is the benchmark's own client work (generating and
/// checking block contents) around those calls.
pub const NAMES: [&str; 15] = [
    "bench.read",
    "bench.scan",
    "bench.write",
    "bench.event",
    "cache.placement_into",
    "cluster.read_block_into",
    "cluster.read_blocks",
    "cluster.write_blocks",
    "cluster.fault",
    "migration.plan",
    "migration.change",
    "migration.migrate_batch",
    "migration.rebuild",
    "migration.repair",
    "obs.export_prometheus",
];

/// Index of a span name in [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u8);

impl Name {
    pub const READ: Name = Name(0);
    pub const SCAN: Name = Name(1);
    pub const WRITE: Name = Name(2);
    pub const EVENT: Name = Name(3);
    pub const LOOKUP: Name = Name(4);
    pub const READ_BLOCK: Name = Name(5);
    pub const READ_BLOCKS: Name = Name(6);
    pub const WRITE_BLOCKS: Name = Name(7);
    pub const FAULT: Name = Name(8);
    pub const PLAN: Name = Name(9);
    pub const CHANGE: Name = Name(10);
    pub const MIGRATE: Name = Name(11);
    pub const REBUILD: Name = Name(12);
    pub const REPAIR: Name = Name(13);
    pub const SCRAPE: Name = Name(14);

    pub fn as_str(self) -> &'static str {
        NAMES[self.0 as usize]
    }

    /// The layer: the part of the name before the dot.
    pub fn layer(self) -> &'static str {
        let s = self.as_str();
        &s[..s.find('.').expect("span names are layer.call")]
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u32,
    pub parent: u32,
    pub name: Name,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `op` under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: Name, op: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let ix = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            start_ns,
            end_ns: start_ns,
            op,
            parent,
            name,
        });
        self.stack.push(ix);
        Open(ix)
    }

    /// Closes `span`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans of every event and of every `sample`-th user op as
    /// tab-separated lines `span op parent name start_ns end_ns` (`parent`
    /// is `-` at the root). Derived metrics use every span; the dump is
    /// thinned only to bound its size.
    pub fn write_tsv(&self, out: &mut impl Write, sample: u32) -> std::io::Result<()> {
        let events: std::collections::HashSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == Name::EVENT)
            .map(|s| s.op)
            .collect();
        writeln!(out, "span\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op % sample != 0 && !events.contains(&s.op) {
                continue;
            }
            if s.parent == NO_PARENT {
                write!(out, "{i}\t{}\t-", s.op)?;
            } else {
                write!(out, "{i}\t{}\t{}", s.op, s.parent)?;
            }
            writeln!(out, "\t{}\t{}\t{}", s.name.as_str(), s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Per-layer totals derived from a span list.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// `(layer, self time in ns)`, in first-seen order.
    pub layers: Vec<(&'static str, u64)>,
    /// Summed duration of all root spans.
    pub root_ns: u64,
}

impl SelfTimes {
    pub fn get(&self, layer: &str) -> u64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |&(_, ns)| ns)
    }
}

/// Self time of each layer: a span's duration minus the part of it its
/// child spans cover (children never overlap: one client thread).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    let mut out = SelfTimes::default();
    for s in spans {
        if s.parent == NO_PARENT {
            out.root_ns += s.dur_ns();
        } else {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    for (s, child) in spans.iter().zip(child_ns) {
        let own = s.dur_ns().saturating_sub(child);
        let layer = s.name.layer();
        match out.layers.iter_mut().find(|(l, _)| *l == layer) {
            Some(entry) => entry.1 += own,
            None => out.layers.push((layer, own)),
        }
    }
    out
}

/// Interquartile mean duration in ns of the spans named `name` (the mean
/// of the middle half, which keeps the median's robustness without its
/// whole-nanosecond steps), if any.
pub fn central_ns(spans: &[Span], name: Name) -> Option<f64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    if d.is_empty() {
        return None;
    }
    d.sort_unstable();
    let middle = &d[d.len() / 4..d.len() - d.len() / 4];
    Some(middle.iter().sum::<u64>() as f64 / middle.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32, name: Name) -> Span {
        Span {
            start_ns: start,
            end_ns: end,
            op: 0,
            parent,
            name,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, NO_PARENT, Name::READ),
            span(10, 30, 0, Name::LOOKUP),
            span(30, 90, 0, Name::READ_BLOCK),
            span(100, 150, NO_PARENT, Name::EVENT),
            span(100, 140, 3, Name::SCRAPE),
        ];
        let t = self_times(&spans);
        assert_eq!(t.root_ns, 150);
        assert_eq!(t.get("bench"), 20 + 10);
        assert_eq!(t.get("cache"), 20);
        assert_eq!(t.get("cluster"), 60);
        assert_eq!(t.get("obs"), 40);
        assert_eq!(t.get("migration"), 0);
    }

    #[test]
    fn central_duration_ignores_the_tails() {
        let spans: Vec<Span> = [1, 10, 11, 12, 13, 1000]
            .iter()
            .map(|&d| span(0, d, NO_PARENT, Name::LOOKUP))
            .collect();
        assert_eq!(central_ns(&spans, Name::LOOKUP), Some(11.5));
        assert_eq!(central_ns(&spans, Name::SCRAPE), None);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, 4);
        let a = t.begin(Name::READ, 7);
        let b = t.begin(Name::READ_BLOCK, 7);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false, 4);
        let a = off.begin(Name::READ, 0);
        off.end(a);
        assert!(off.spans().is_empty());
    }
}
