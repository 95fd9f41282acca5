//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: name, start, end, parent, and a `group` id shared by
//! all spans of one chunk / epoch. They stay in memory until the run
//! ends. A layer's *self time* is its span's duration minus its
//! children's durations (children never overlap: the benchmark is
//! single-threaded while it traces).

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `id` is 1-based; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Chunk or epoch id shared by the spans of one unit of work.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (requests, queries, epochs…): the
    /// denominator of the per-layer "ns per unit" metrics.
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and work of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCost {
    pub self_ns: u64,
    pub units: u64,
    pub spans: u64,
}

impl LayerCost {
    /// Self time per unit of work, ns (0 when the layer did no work).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the spans still open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str, group: u64) -> u32 {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            group,
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    /// Panics when spans are closed out of order — a bug in the caller.
    pub fn close(&mut self, id: u32, units: u64) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close without an open span");
        assert_eq!(self.spans[i].id, id, "spans must nest");
        self.spans[i].end_ns = end_ns;
        self.spans[i].units = units;
    }

    /// Records `f` as a childless span under the innermost open one;
    /// `f` returns its result and the units of work it did.
    pub fn leaf<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> (R, u64)) -> R {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        let (r, units) = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            group,
            start_ns,
            end_ns,
            units,
        });
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self time, units and span count summed per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerCost> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            let c = out.entry(s.name).or_default();
            c.self_ns += self_ns;
            c.units += s.units;
            c.spans += 1;
        }
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// One JSON object per line: the span plus its derived self time.
    /// Names are `[A-Za-z0-9_.-]+` by construction, so no escaping.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"units\":{},\"self_ns\":{}}}\n",
                s.id, s.parent, s.name, s.group, s.start_ns, s.end_ns, s.units, self_ns
            ));
        }
        out
    }

    /// Chrome trace-event JSON (complete `X` events, µs) — loads in
    /// Perfetto / `chrome://tracing`.
    pub fn to_chrome(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 130 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"group\":{},\"units\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.group,
                s.units
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = (s.parent - 1) as usize;
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 0,
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, 0, "chunk", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 40, 90),
            span(4, 3, "b.inner", 50, 60),
        ];
        // chunk: 100 - 30 - 50; b: 50 - 10; grandchildren do not count twice.
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
        // Self times partition the root: nothing is lost or double counted.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_parents_and_aggregates_by_name() {
        let mut t = Tracer::new();
        let root = t.open("chunk", 7);
        let got = t.leaf("stage", 7, || (42, 256));
        t.leaf("stage", 7, || ((), 256));
        t.close(root, 1);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert!(s.iter().all(|x| x.group == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let by = t.by_name();
        assert_eq!(by["stage"].units, 512);
        assert_eq!(by["stage"].spans, 2);
        let parts: u64 = by.values().map(|c| c.self_ns).sum();
        assert_eq!(
            parts,
            s[0].duration_ns(),
            "self times partition the root span"
        );
        assert_eq!(t.total_ns("chunk"), s[0].duration_ns());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.open("a", 0);
        let _b = t.open("b", 0);
        t.close(a, 0);
    }

    #[test]
    fn exports_are_well_formed_json() {
        let mut t = Tracer::new();
        let root = t.open("chunk", 1);
        t.leaf("core.route", 1, || ((), 3));
        t.close(root, 1);
        for line in t.to_jsonl().lines() {
            let j = hieras_rt::Json::parse(line).expect("every line parses");
            assert!(j.get("self_ns").is_some() && j.get("parent").is_some());
        }
        let chrome = hieras_rt::Json::parse(&t.to_chrome()).expect("chrome trace parses");
        assert_eq!(
            chrome
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn ns_per_unit_is_zero_without_work() {
        assert_eq!(LayerCost::default().ns_per_unit(), 0.0);
        assert_eq!(
            LayerCost {
                self_ns: 300,
                units: 3,
                spans: 1
            }
            .ns_per_unit(),
            100.0
        );
    }
}
