//! Spans recorded by the benchmark around each call into a layer.
//!
//! Nothing inside the crates under test is instrumented: a span is two
//! `Instant` reads around a public call, kept in memory and written out
//! at exit. Executor firings are too many for one span each, so the
//! sequential workloads hand in per-(operation, node) aggregates instead
//! ([`Tracer::fires`]); they count as children of the span open at the
//! time, so self time (= span - children) stays meaningful.

use macross_telemetry::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Node classes the `vm.share_*` metrics split firing time by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeClass {
    Filter,
    SplitJoin,
    HSplitJoin,
    Sink,
}

impl NodeClass {
    pub fn label(self) -> &'static str {
        match self {
            NodeClass::Filter => "filter",
            NodeClass::SplitJoin => "splitjoin",
            NodeClass::HSplitJoin => "hsplitjoin",
            NodeClass::Sink => "sink",
        }
    }
}

/// One recorded call. `name` is `<layer>.<call>`; `parent` is 0 for an
/// operation's root span (ids start at 1).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans and fire aggregates.
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Firings of one node inside one operation.
#[derive(Debug, Clone)]
pub struct FireAgg {
    pub op: u32,
    pub node: u32,
    pub class: NodeClass,
    pub count: u64,
    pub ns: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Tok(usize);

/// Count, self time and duration summed over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub self_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    last_op: u32,
    fires: Vec<FireAgg>,
}

impl Tracer {
    /// A tracer that records nothing: `begin`/`end` are one branch each.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            last_op: 0,
            fires: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next operation; spans until the next call share its id.
    pub fn next_op(&mut self) -> u32 {
        self.last_op += 1;
        self.op = self.last_op;
        self.op
    }

    /// The current operation id.
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Attribute the spans that follow to an operation started earlier
    /// (service sessions interleave their calls).
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Tok {
        if !self.enabled {
            return Tok(usize::MAX);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        self.open.push(idx);
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            op: self.op,
            name,
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
        });
        // Read the clock last so bookkeeping stays outside the span.
        self.spans[idx].start_ns = self.now_ns();
        Tok(idx)
    }

    pub fn end(&mut self, tok: Tok) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let popped = self.open.pop();
        assert_eq!(popped, Some(tok.0), "spans must nest");
        self.spans[tok.0].end_ns = end;
        let dur = self.spans[tok.0].dur_ns();
        if let Some(&p) = self.open.last() {
            self.spans[p].child_ns += dur;
        }
    }

    /// Hand in per-node firing aggregates measured inside the span that
    /// is open now (`per_node[i]` = (count, ns) of node `i`).
    pub fn fires(&mut self, per_node: &[(u64, u64)], classes: &[NodeClass]) {
        if !self.enabled {
            return;
        }
        let mut total = 0;
        for (node, &(count, ns)) in per_node.iter().enumerate() {
            if count > 0 {
                total += ns;
                self.fires.push(FireAgg {
                    op: self.op,
                    node: node as u32,
                    class: classes[node],
                    count,
                    ns,
                });
            }
        }
        if let Some(&p) = self.open.last() {
            self.spans[p].child_ns += total;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn fire_aggs(&self) -> &[FireAgg] {
        &self.fires
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += s.self_ns();
            t.dur_ns += s.dur_ns();
        }
        out
    }

    /// Firing count and time per node class.
    pub fn by_class(&self) -> BTreeMap<NodeClass, (u64, u64)> {
        let mut out: BTreeMap<NodeClass, (u64, u64)> = BTreeMap::new();
        for f in &self.fires {
            let t = out.entry(f.class).or_default();
            t.0 += f.count;
            t.1 += f.ns;
        }
        out
    }

    /// Share of operation time (root spans) spent inside calls into a
    /// layer: 1 - root self time / root duration.
    pub fn coverage(&self) -> f64 {
        let (mut dur, mut own) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.parent == 0) {
            dur += s.dur_ns();
            own += s.self_ns();
        }
        if dur == 0 {
            0.0
        } else {
            1.0 - own as f64 / dur as f64
        }
    }

    /// The trace as one JSON document (`header` is the run header).
    pub fn to_json(&self, header: Json) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", num(s.id as u64)),
                    ("parent", num(s.parent as u64)),
                    ("op", num(s.op as u64)),
                    (
                        "layer",
                        Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("self_ns", num(s.self_ns())),
                ])
            })
            .collect();
        let fires = self
            .fires
            .iter()
            .map(|f| {
                Json::obj([
                    ("op", num(f.op as u64)),
                    ("node", num(f.node as u64)),
                    ("class", Json::Str(f.class.label().to_string())),
                    ("count", num(f.count)),
                    ("ns", num(f.ns)),
                ])
            })
            .collect();
        Json::obj([
            ("header", header),
            ("coverage", Json::Num(self.coverage())),
            ("spans", Json::Arr(spans)),
            ("fires", Json::Arr(fires)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::on();
        tr.next_op();
        let root = tr.begin("bench.op");
        spin(200_000);
        let a = tr.begin("vm.steady");
        spin(300_000);
        // 100 µs of the child is attributed to firings.
        tr.fires(
            &[(4, 100_000), (0, 0)],
            &[NodeClass::Filter, NodeClass::Sink],
        );
        tr.end(a);
        let b = tr.begin("vm.init");
        spin(100_000);
        tr.end(b);
        tr.end(root);

        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.op == 1));
        let (root, steady, init) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(root.child_ns, steady.dur_ns() + init.dur_ns());
        assert_eq!(
            root.self_ns(),
            root.dur_ns() - steady.dur_ns() - init.dur_ns()
        );
        assert!(root.self_ns() >= 200_000);
        assert_eq!(steady.self_ns(), steady.dur_ns() - 100_000);
        assert_eq!(init.self_ns(), init.dur_ns());

        let names = tr.by_name();
        assert_eq!(names["vm.steady"].count, 1);
        assert_eq!(names["vm.steady"].self_ns, steady.self_ns());
        assert_eq!(tr.by_class()[&NodeClass::Filter], (4, 100_000));
        assert!(!tr.by_class().contains_key(&NodeClass::Sink));
        let cov = tr.coverage();
        assert!(cov > 0.4 && cov < 0.8, "coverage {cov}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.next_op();
        let t = tr.begin("vm.steady");
        tr.fires(&[(1, 1)], &[NodeClass::Filter]);
        tr.end(t);
        assert!(tr.spans().is_empty());
        assert!(tr.fire_aggs().is_empty());
        assert_eq!(tr.coverage(), 0.0);
    }
}
