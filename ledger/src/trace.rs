//! The benchmark's own span recorder. Spans are opened and closed by the
//! benchmark around calls into the engine's public functions; nothing is
//! recorded inside the engine. Spans live in memory and are written out
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub detail: String,
    /// The operation the span belongs to (spans of one operation share it).
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Records a span tree per thread. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, detail: &str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            detail: detail.to_string(),
            op,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`begin`](Self::begin); spans close in LIFO
    /// order.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, detail, op);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Appends `other` (from another thread's tracer) to `into`, renumbering
/// its ids and parents.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len();
    into.extend(other.into_iter().map(|mut s| {
        s.id += base;
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span (indexed like `spans`): its duration minus the
/// part of its interval that the union of its children's intervals covers.
/// Children may overlap each other (work on other threads) and may stick
/// out of the parent; only the covered part inside the parent counts once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Self-time totals by name over the spans beneath the roots named `root`
/// (the blocking path of each operation), plus the roots' summed duration.
pub fn blocking_path(spans: &[Span], root: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times_ns(spans);
    let mut under_root = vec![false; spans.len()];
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut roots_ns = 0;
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so one forward pass marks subtrees.
        under_root[i] = s.name == root || s.parent.is_some_and(|p| under_root[p]);
        if s.name == root {
            roots_ns += s.duration_ns();
        }
        if under_root[i] {
            *by_name.entry(s.name).or_default() += selfs[i];
        }
    }
    (by_name, roots_ns)
}

/// Renders the spans as a JSON array (the span dump).
pub fn dump_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"detail\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.name,
            s.detail.replace('\\', "\\\\").replace('"', "\\\""),
            s.op,
            parent,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "s",
            detail: String::new(),
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children on different threads overlap on [20, 30).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(0), 35, 38),
        ];
        assert_eq!(self_times_ns(&spans)[0], 70);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(0, None, 10, 50),
            span(1, Some(0), 0, 20),
            span(2, Some(0), 45, 90),
        ];
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 0, 40),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let mut t = Tracer::new(Instant::now(), true);
        let a = t.begin("op", "q1", 7);
        t.span("inner", "", 7, || ());
        t.end(a);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        let mut all = spans.clone();
        merge(&mut all, spans);
        assert_eq!(all[3].id, 3);
        assert_eq!(all[3].parent, Some(2));
        let (by_name, roots) = blocking_path(&all, "op");
        assert_eq!(by_name.values().sum::<u64>(), roots);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let a = t.begin("op", "", 1);
        t.end(a);
        assert!(t.into_spans().is_empty());
    }
}
