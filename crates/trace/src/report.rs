//! Analyses over a snapshot of the span store: the phase profiler,
//! critical-path extraction, and the determinism digest.

use crate::ids::{SpanId, TraceId};
use crate::span::Span;
use copra_simtime::SimDuration;
use rustc_hash::FxHashMap;
use std::fmt::Write as _;

/// A frozen snapshot of a trace, in canonical order (see
/// `TraceStore::snapshot`).
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub trace: TraceId,
    pub seed: u64,
    pub spans: Vec<Span>,
    /// Spans lost to the store's capacity bound.
    pub dropped: u64,
}

/// One row of the phase profile: aggregate timing for every span sharing a
/// name. *Inclusive* covers the span's whole window; *exclusive* subtracts
/// the inclusive time of direct children (clamped at zero — concurrent
/// children can legitimately overlap their parent in sim time).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PhaseRow {
    pub name: &'static str,
    pub count: u64,
    pub sim_inclusive: SimDuration,
    pub sim_exclusive: SimDuration,
    pub wall_inclusive_ns: u64,
    pub wall_exclusive_ns: u64,
    /// Percentiles over per-span wall durations.
    pub wall_p50_ns: u64,
    pub wall_p99_ns: u64,
}

/// One hop of a critical path, with this span's share of the root's
/// inclusive time on both clocks.
#[derive(Debug, Clone)]
pub struct PathStep {
    pub span: Span,
    pub depth: usize,
    pub sim_share: f64,
    pub wall_share: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl TraceReport {
    fn children_index(&self) -> FxHashMap<SpanId, Vec<usize>> {
        let mut idx: FxHashMap<SpanId, Vec<usize>> = FxHashMap::default();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                idx.entry(p).or_default().push(i);
            }
        }
        idx
    }

    /// Spans with no recorded parent (either true roots, or spans whose
    /// parent was never recorded — e.g. context arrived from an untraced
    /// layer).
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        let have: rustc_hash::FxHashSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(move |s| s.parent.is_none_or(|p| !have.contains(&p)))
    }

    /// Spans whose id an earlier span already took. Children of colliding
    /// ids merge in [`TraceReport::phase_table`], so a nonzero count means
    /// some call site keys its spans by a value that repeats (or, by
    /// design, that re-dispatched work overlaid its first attempt).
    pub fn duplicate_ids(&self) -> u64 {
        let mut seen = rustc_hash::FxHashSet::default();
        self.spans.iter().filter(|s| !seen.insert(s.id)).count() as u64
    }

    /// First span (canonical order) with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    pub fn spans_named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The phase profile, sorted by wall-exclusive time descending (ties
    /// broken by sim-exclusive, then name, so output order is stable).
    pub fn phase_table(&self) -> Vec<PhaseRow> {
        let children = self.children_index();
        // Per-span exclusive = inclusive − Σ direct children inclusive.
        struct Acc {
            count: u64,
            sim_inc: u64,
            sim_exc: u64,
            wall_inc: u64,
            wall_exc: u64,
            wall_durs: Vec<u64>,
        }
        let mut by_name: FxHashMap<&'static str, Acc> = FxHashMap::default();
        for (i, s) in self.spans.iter().enumerate() {
            let (mut child_sim, mut child_wall) = (0u64, 0u64);
            if let Some(kids) = children.get(&s.id) {
                for &k in kids {
                    child_sim += self.spans[k].sim_duration().as_nanos();
                    child_wall += self.spans[k].wall_duration_ns();
                }
            }
            let _ = i;
            let sim = s.sim_duration().as_nanos();
            let wall = s.wall_duration_ns();
            let a = by_name.entry(s.name).or_insert(Acc {
                count: 0,
                sim_inc: 0,
                sim_exc: 0,
                wall_inc: 0,
                wall_exc: 0,
                wall_durs: Vec::new(),
            });
            a.count += 1;
            a.sim_inc += sim;
            a.sim_exc += sim.saturating_sub(child_sim);
            a.wall_inc += wall;
            a.wall_exc += wall.saturating_sub(child_wall);
            a.wall_durs.push(wall);
        }
        let mut rows: Vec<PhaseRow> = by_name
            .into_iter()
            .map(|(name, mut a)| {
                a.wall_durs.sort_unstable();
                PhaseRow {
                    name,
                    count: a.count,
                    sim_inclusive: SimDuration::from_nanos(a.sim_inc),
                    sim_exclusive: SimDuration::from_nanos(a.sim_exc),
                    wall_inclusive_ns: a.wall_inc,
                    wall_exclusive_ns: a.wall_exc,
                    wall_p50_ns: percentile(&a.wall_durs, 0.50),
                    wall_p99_ns: percentile(&a.wall_durs, 0.99),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            (b.wall_exclusive_ns, b.sim_exclusive, a.name).cmp(&(
                a.wall_exclusive_ns,
                a.sim_exclusive,
                b.name,
            ))
        });
        rows
    }

    /// Render the phase table as aligned plain text.
    pub fn phase_table_text(&self) -> String {
        let rows = self.phase_table();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "phase",
            "count",
            "sim incl",
            "sim excl",
            "wall incl",
            "wall excl",
            "wall p50",
            "wall p99"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
                r.name,
                r.count,
                r.sim_inclusive.to_string(),
                r.sim_exclusive.to_string(),
                fmt_wall(r.wall_inclusive_ns),
                fmt_wall(r.wall_exclusive_ns),
                fmt_wall(r.wall_p50_ns),
                fmt_wall(r.wall_p99_ns),
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "(!) {} spans dropped at capacity", self.dropped);
        }
        let duplicates = self.duplicate_ids();
        if duplicates > 0 {
            let _ = writeln!(out, "(!) {duplicates} spans reuse an earlier span's id");
        }
        out
    }

    /// Extract the critical path below `root`: at every hop follow the
    /// child that finishes last (sim end, then wall end, then id — a total
    /// order, so the path is deterministic).
    pub fn critical_path(&self, root: SpanId) -> Vec<PathStep> {
        let children = self.children_index();
        let by_id: FxHashMap<SpanId, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let Some(&ri) = by_id.get(&root) else {
            return Vec::new();
        };
        let rs = &self.spans[ri];
        let root_sim = rs.sim_duration().as_nanos().max(1);
        let root_wall = rs.wall_duration_ns().max(1);
        let mut path = Vec::new();
        let mut cur = ri;
        let mut depth = 0usize;
        loop {
            let s = &self.spans[cur];
            path.push(PathStep {
                span: s.clone(),
                depth,
                sim_share: s.sim_duration().as_nanos() as f64 / root_sim as f64,
                wall_share: s.wall_duration_ns() as f64 / root_wall as f64,
            });
            let Some(kids) = children.get(&s.id) else {
                break;
            };
            let next = kids
                .iter()
                .copied()
                .max_by_key(|&k| {
                    let c = &self.spans[k];
                    (c.sim_end, c.wall_end_ns, c.id.0)
                })
                .unwrap();
            cur = next;
            depth += 1;
        }
        path
    }

    /// Render a critical path as indented plain text with per-hop shares.
    pub fn critical_path_text(&self, root: SpanId) -> String {
        let path = self.critical_path(root);
        let mut out = String::new();
        for step in &path {
            let s = &step.span;
            let _ = writeln!(
                out,
                "{:indent$}{} (key={:x})  sim {} ({:.0}%)  wall {} ({:.0}%)",
                "",
                s.name,
                s.key,
                s.sim_duration(),
                step.sim_share * 100.0,
                fmt_wall(s.wall_duration_ns()),
                step.wall_share * 100.0,
                indent = step.depth * 2,
            );
        }
        out
    }

    /// FNV digest over the sim-time span tree: ids, parentage, names, keys
    /// and sim windows — everything *except* wall time and thread ids.
    /// Same seed + same work ⇒ same digest, regardless of scheduling.
    pub fn tree_digest(&self) -> u64 {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.id.0, s.sim_start, s.sim_end));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        mix(self.trace.0);
        for s in spans {
            mix(s.id.0);
            mix(s.parent.map_or(0, |p| p.0));
            mix(crate::ids::fnv64(s.name.as_bytes()));
            mix(s.key);
            mix(s.sim_start.as_nanos());
            mix(s.sim_end.as_nanos());
        }
        h
    }
}

pub(crate) fn fmt_wall(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use copra_simtime::SimInstant;

    fn demo_trace() -> Tracer {
        let t = Tracer::armed(11);
        let root = t.root("run", 0, SimInstant::EPOCH).unwrap();
        let a = root.child("phase.a", 1, SimInstant::EPOCH);
        a.finish(SimInstant::from_secs(4));
        let b = root.child("phase.b", 2, SimInstant::from_secs(4));
        let b1 = b.child("phase.b.inner", 1, SimInstant::from_secs(5));
        b1.finish(SimInstant::from_secs(9));
        b.finish(SimInstant::from_secs(10));
        root.finish(SimInstant::from_secs(10));
        t
    }

    #[test]
    fn phase_table_computes_exclusive_time() {
        let rep = demo_trace().report().unwrap();
        let rows = rep.phase_table();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        // run: 10s inclusive, minus children (4 + 6) = 0 exclusive.
        assert_eq!(get("run").sim_inclusive, SimDuration::from_secs(10));
        assert_eq!(get("run").sim_exclusive, SimDuration::ZERO);
        // phase.b: 6s inclusive, inner child 4s ⇒ 2s exclusive.
        assert_eq!(get("phase.b").sim_exclusive, SimDuration::from_secs(2));
        assert_eq!(get("phase.a").sim_exclusive, SimDuration::from_secs(4));
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let rep = demo_trace().report().unwrap();
        let root = rep.find("run").unwrap().id;
        let path = rep.critical_path(root);
        let names: Vec<&str> = path.iter().map(|s| s.span.name).collect();
        assert_eq!(names, vec!["run", "phase.b", "phase.b.inner"]);
        assert!((path[1].sim_share - 0.6).abs() < 1e-9);
        let text = rep.critical_path_text(root);
        assert!(text.contains("phase.b.inner"));
    }

    #[test]
    fn digest_stable_across_runs_and_sensitive_to_structure() {
        let a = demo_trace().report().unwrap();
        let b = demo_trace().report().unwrap();
        assert_eq!(a.tree_digest(), b.tree_digest());

        let t = Tracer::armed(11);
        let root = t.root("run", 0, SimInstant::EPOCH).unwrap();
        root.finish(SimInstant::from_secs(10));
        assert_ne!(a.tree_digest(), t.report().unwrap().tree_digest());
    }

    #[test]
    fn duplicate_ids_count_roots_keyed_alike() {
        assert_eq!(demo_trace().report().unwrap().duplicate_ids(), 0);
        let t = Tracer::armed(11);
        for (key, at) in [(3, 0), (3, 5), (4, 9)] {
            let root = t.root("call", key, SimInstant::from_secs(at)).unwrap();
            root.finish(SimInstant::from_secs(at + 1));
        }
        let rep = t.report().unwrap();
        assert_eq!(rep.duplicate_ids(), 1);
        assert!(rep.phase_table_text().contains("1 spans reuse"));
    }

    #[test]
    fn roots_and_percentiles() {
        let rep = demo_trace().report().unwrap();
        assert_eq!(rep.roots().count(), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 3);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
        let text = rep.phase_table_text();
        assert!(text.contains("phase.b.inner"));
    }
}
