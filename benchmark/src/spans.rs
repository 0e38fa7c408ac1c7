//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the harness around its calls into each layer's
//! public functions (spans inside the program are a later change — ROADMAP
//! item 2(a)). They live in a `Vec` until the child exits and are then
//! written to `benchmark/out/trace.<workload>.json`.
//!
//! Hierarchy: workload -> setup | rep -> sweep -> point -> phase. Work that
//! repeats every simulated cycle (drain steps, scoreboard polls) is never a
//! span per cycle: its time is accumulated and recorded as one synthetic
//! child span per point ([`Tracer::add_child`]), which bounds memory.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for the root (workload) span.
    pub parent: Option<u32>,
    pub name: String,
    /// The crate whose public functions the interval spent its time in
    /// (`bench` for the harness itself).
    pub layer: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Span recorder plus the per-rep metric samples of the traced pass.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, outermost first; a new span's parent
    /// is the innermost open one.
    stack: Vec<u32>,
    rep: u32,
    /// Per-layer metric samples, one per traced rep, keyed by metric name.
    samples: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    pub fn new(workload: &'static str, epoch: Instant) -> Self {
        Self {
            workload,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            samples: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the recorder's epoch (the child's process start).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the rep number stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &str, layer: &'static str) -> SpanId {
        let now = self.now_ns();
        let id = self.push(name, layer, now, now);
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one. Returns its
    /// duration in seconds.
    pub fn close(&mut self, span: SpanId) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[span.0 as usize];
        span.end_ns = now;
        span.duration_ns() as f64 * 1e-9
    }

    /// Records an already-measured interval as a child of the innermost open
    /// span (used for accumulated per-cycle work).
    pub fn add_child(&mut self, name: &str, layer: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, layer, start_ns, end_ns);
    }

    fn push(&mut self, name: &str, layer: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_owned(),
            layer,
            rep: self.rep,
            start_ns,
            end_ns,
        });
        id
    }

    /// Adds one traced rep's sample of per-layer metric `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    pub fn samples(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.samples
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("id".into(), Value::Num(f64::from(s.id))),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                        ),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("layer".into(), Value::Str(s.layer.to_owned())),
                        ("workload".into(), Value::Str(self.workload.to_owned())),
                        ("rep".into(), Value::Num(f64::from(s.rep))),
                        ("start_ns".into(), Value::Num(s.start_ns as f64)),
                        ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs `f` inside a span named `name` when tracing and returns its result
/// with the span's seconds; untraced, it just runs `f` (no clock read) and
/// the seconds are 0.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer.as_mut() {
        None => (f(), 0.0),
        Some(tracer) => {
            let span = tracer.open(name, layer);
            let result = f();
            (result, tracer.close(span))
        }
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children are clipped to the parent and overlapping
/// children are counted once). Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// One row of the self-time table: spans aggregated by `(layer, name)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    pub layer: &'static str,
    pub name: String,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Aggregates [`self_times_ns`] by `(layer, name)`, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfTimeRow> {
    let self_ns = self_times_ns(spans);
    let mut rows: BTreeMap<(&'static str, &str), SelfTimeRow> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let row = rows
            .entry((span.layer, span.name.as_str()))
            .or_insert_with(|| SelfTimeRow {
                layer: span.layer,
                name: span.name.clone(),
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
        row.count += 1;
        row.total_s += span.duration_ns() as f64 * 1e-9;
        row.self_s += own as f64 * 1e-9;
    }
    let mut rows: Vec<SelfTimeRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_s.partial_cmp(&a.self_s).expect("times are finite"));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            layer: "bench",
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // rep [0,100)
        //   point [10,90)
        //     warmup  [10,30)
        //     measure [30,70)
        //     drain   [70,90)
        //       drain_steps [70,82)   (accumulated)
        //       drain_poll  [82,86)   (accumulated)
        //   overlapping pair under rep: a [90,96), b [94,99) -> 9 covered
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "point", 10, 90),
            span(2, Some(1), "warmup", 10, 30),
            span(3, Some(1), "measure", 30, 70),
            span(4, Some(1), "drain", 70, 90),
            span(5, Some(4), "drain_steps", 70, 82),
            span(6, Some(4), "drain_poll", 82, 86),
            span(7, Some(0), "a", 90, 96),
            span(8, Some(0), "b", 94, 99),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 80 - 9, "rep: minus point, minus a∪b");
        assert_eq!(own[1], 0, "point is fully covered by its phases");
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 20 - 12 - 4, "drain keeps only loop overhead");
        assert_eq!(own[5], 12);
        assert_eq!(own[6], 4);
        // Self times partition the root exactly when nothing overlaps twice.
        let total: u64 = own.iter().sum();
        assert_eq!(
            total,
            100 + 2,
            "the a/b overlap [94,96) is self time of both"
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, None, "rep", 10, 20),
            span(1, Some(0), "early", 0, 12),
            span(2, Some(0), "late", 18, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10 - 2 - 2);
    }

    #[test]
    fn table_aggregates_by_layer_and_name() {
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "point", 0, 40),
            span(2, Some(0), "point", 40, 100),
        ];
        let table = self_time_table(&spans);
        assert_eq!(table[0].name, "point");
        assert_eq!(table[0].count, 2);
        assert!((table[0].self_s - 100e-9).abs() < 1e-15);
        assert_eq!(table[1].name, "rep");
        assert_eq!(table[1].self_s, 0.0);
    }

    #[test]
    fn tracer_nests_spans_under_the_innermost_open_one() {
        let mut tracer = Tracer::new("w", Instant::now());
        let rep = tracer.open("rep", "bench");
        let point = tracer.open("point", "mesh-noc");
        tracer.add_child("drain_steps", "mesh-noc", 5, 9);
        tracer.close(point);
        tracer.close(rep);
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
