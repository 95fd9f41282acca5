//! Wall-clock phase profiling: nested named scopes reported as a
//! self-time tree.
//!
//! A [`Profiler`] times `start`/`end` pairs on the real clock and
//! accumulates them into a tree keyed by scope name *per parent* —
//! entering "dijkstra" twice under "build" yields one node with
//! `calls == 2`. The report ([`PhaseReport`]) carries, per node, the
//! inclusive total and the **self time** (total minus children), which
//! is the number that tells you where a phase actually spends its
//! wall-clock rather than merely which phase contains the hot one.
//!
//! Wall-clock values are inherently nondeterministic, so phase trees
//! never participate in the thread-identity comparisons — they are
//! operator-facing output embedded in the bench JSON files.

use hieras_rt::{Json, ToJson};
use std::time::Instant;

#[derive(Debug)]
struct Node {
    name: String,
    calls: u64,
    total_ns: u64,
    children: Vec<usize>,
}

/// A nesting wall-clock profiler.
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<Node>,
    /// Root-level node indices, in first-entry order.
    roots: Vec<usize>,
    /// Open scopes: (node index, entry time).
    stack: Vec<(usize, Instant)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A fresh profiler with no scopes.
    #[must_use]
    pub fn new() -> Self {
        Profiler { nodes: Vec::new(), roots: Vec::new(), stack: Vec::new() }
    }

    fn child_named(&mut self, name: &str) -> usize {
        let siblings: &[usize] = match self.stack.last() {
            Some(&(parent, _)) => &self.nodes[parent].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_owned(),
            calls: 0,
            total_ns: 0,
            children: Vec::new(),
        });
        match self.stack.last() {
            Some(&(parent, _)) => self.nodes[parent].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Enters scope `name` (nested under the innermost open scope).
    pub fn start(&mut self, name: &str) {
        let idx = self.child_named(name);
        self.stack.push((idx, Instant::now()));
    }

    /// Leaves the innermost open scope, accumulating its elapsed time.
    ///
    /// # Panics
    /// Panics if no scope is open — a mismatched `start`/`end` pair is
    /// a bug at the instrumentation site.
    pub fn end(&mut self) {
        let (idx, started) = self.stack.pop().expect("Profiler::end without a start");
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.total_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Times a closure as a scope — the ergonomic form for leaf phases.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.start(name);
        let out = f();
        self.end();
        out
    }

    /// Snapshots the accumulated tree. Open scopes are reported with
    /// the time they have accrued in *finished* visits only.
    #[must_use]
    pub fn report(&self) -> PhaseReport {
        let phases = self.roots.iter().map(|&i| self.phase_of(i)).collect();
        PhaseReport { phases }
    }

    fn phase_of(&self, idx: usize) -> Phase {
        let n = &self.nodes[idx];
        let children: Vec<Phase> = n.children.iter().map(|&c| self.phase_of(c)).collect();
        let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
        Phase {
            name: n.name.clone(),
            calls: n.calls,
            total_ns: n.total_ns,
            self_ns: n.total_ns.saturating_sub(child_ns),
            children,
        }
    }
}

/// One node of a [`PhaseReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Scope name.
    pub name: String,
    /// Completed `start`/`end` visits.
    pub calls: u64,
    /// Inclusive wall-clock, ns.
    pub total_ns: u64,
    /// Exclusive wall-clock: total minus children, ns.
    pub self_ns: u64,
    /// Nested scopes, in first-entry order.
    pub children: Vec<Phase>,
}

/// A snapshot of a [`Profiler`]'s scope tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Top-level phases, in first-entry order.
    pub phases: Vec<Phase>,
}

impl PhaseReport {
    /// Renders the tree as indented text, one line per phase:
    /// `name  total_ms (self self_ms, calls n)`.
    #[must_use]
    pub fn render(&self) -> String {
        fn line(out: &mut String, p: &Phase, depth: usize) {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{:indent$}{:<24} {:>9.2} ms (self {:>9.2} ms, calls {})",
                "",
                p.name,
                p.total_ns as f64 / 1e6,
                p.self_ns as f64 / 1e6,
                p.calls,
                indent = depth * 2,
            );
            for c in &p.children {
                line(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        for p in &self.phases {
            line(&mut out, p, 0);
        }
        out
    }

    /// Total inclusive time across the top-level phases, ns.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }
}

impl ToJson for Phase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("calls", self.calls.to_json()),
            ("total_ns", self.total_ns.to_json()),
            ("self_ns", self.self_ns.to_json()),
            ("children", self.children.to_json()),
        ])
    }
}

impl ToJson for PhaseReport {
    fn to_json(&self) -> Json {
        Json::obj([("phases", self.phases.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_aggregate_by_name_per_parent() {
        let mut p = Profiler::new();
        p.start("build");
        p.scope("dijkstra", || {});
        p.scope("dijkstra", || {});
        p.end();
        p.scope("replay", || {});
        let r = p.report();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "build");
        assert_eq!(r.phases[0].children.len(), 1, "same-name scopes merge");
        assert_eq!(r.phases[0].children[0].calls, 2);
        assert_eq!(r.phases[1].name, "replay");
        assert_eq!(r.phases[1].calls, 1);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = Profiler::new();
        p.start("outer");
        p.scope("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        p.end();
        let r = p.report();
        let outer = &r.phases[0];
        assert!(outer.total_ns >= outer.children[0].total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - outer.children[0].total_ns);
        assert!(r.total_ns() >= 2_000_000);
    }

    #[test]
    fn same_name_under_different_parents_stays_distinct() {
        let mut p = Profiler::new();
        p.start("a");
        p.scope("work", || {});
        p.end();
        p.start("b");
        p.scope("work", || {});
        p.scope("work", || {});
        p.end();
        let r = p.report();
        assert_eq!(r.phases[0].children[0].calls, 1);
        assert_eq!(r.phases[1].children[0].calls, 2);
    }

    #[test]
    fn render_names_each_phase() {
        let mut p = Profiler::new();
        p.scope("alpha", || {
            // a measurable but tiny scope
        });
        let text = p.report().render();
        assert!(text.contains("alpha"));
        assert!(text.contains("calls 1"));
    }

    #[test]
    #[should_panic(expected = "without a start")]
    fn unbalanced_end_panics() {
        Profiler::new().end();
    }
}
