//! The ILM policy engine.
//!
//! GPFS policies are SQL-ish rules (`RULE 'x' MIGRATE FROM POOL 'fast' TO
//! POOL 'tape' WHERE FILE_SIZE < ...`). We model them as data: a [`Rule`]
//! couples an [`Action`] with a [`Predicate`] tree. The engine classifies
//! each file during the sharded namespace scan ([`crate::Pfs::run_policy`])
//! — first-matching-rule-wins per file, as in GPFS.
//!
//! §4.2.4 of the paper is explicit that the *migration* rules are used only
//! in LIST mode by the integrated system (the custom parallel migrator does
//! the actual movement), so LIST, EXCLUDE and placement are the only
//! actions modelled.

use crate::glob::wildcard_match;
use crate::pool::PoolId;
use copra_simtime::{SimDuration, SimInstant};
use copra_vfs::{HsmState, Ino, InodeAttr};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One file as a policy scan reports it: the owned form of a [`FileView`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileRecord {
    pub path: String,
    pub ino: Ino,
    /// Logical size (stub files report their pre-punch size).
    pub size: u64,
    pub uid: u32,
    pub mtime: SimInstant,
    pub atime: SimInstant,
    pub pool: PoolId,
    pub hsm: HsmState,
}

impl FileRecord {
    #[cfg(test)]
    pub fn view<'a>(&'a self, pool: &'a str) -> FileView<'a> {
        FileView {
            path: &self.path,
            ino: self.ino,
            size: self.size,
            uid: self.uid,
            mtime: self.mtime,
            atime: self.atime,
            pool,
            hsm: self.hsm,
        }
    }
}

/// Everything a policy predicate can see about one file, borrowed: the scan
/// evaluates rules on this and builds a [`FileRecord`] only for a match.
#[derive(Debug, Clone, Copy)]
pub struct FileView<'a> {
    pub path: &'a str,
    pub ino: Ino,
    /// Logical size (stub files report their pre-punch size).
    pub size: u64,
    pub uid: u32,
    pub mtime: SimInstant,
    pub atime: SimInstant,
    pub pool: &'a str,
    pub hsm: HsmState,
}

impl<'a> FileView<'a> {
    /// A regular file as the policy scan sees it: the stub-size overlay and
    /// HSM state come from its managed region; `pool` names its pool tag.
    pub(crate) fn of(path: &'a str, inode: &InodeAttr, pool: &'a str) -> Self {
        FileView {
            path,
            ino: inode.ino,
            size: inode.region.logical_size(inode.size),
            uid: inode.uid,
            mtime: inode.mtime,
            atime: inode.atime,
            pool,
            hsm: inode.region.state,
        }
    }

    /// The owned record of this file, which lies in pool `pool`.
    pub fn to_record(&self, pool: PoolId) -> FileRecord {
        FileRecord {
            path: self.path.to_string(),
            ino: self.ino,
            size: self.size,
            uid: self.uid,
            mtime: self.mtime,
            atime: self.atime,
            pool,
            hsm: self.hsm,
        }
    }
}

/// Comparison operator for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl Cmp {
    fn holds<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

/// Predicate tree over [`FileView`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// Always true (`WHERE TRUE`).
    True,
    /// Compare file size in bytes.
    SizeBytes(Cmp, u64),
    /// Compare time since last modification (age = now − mtime).
    MtimeAge(Cmp, SimDuration),
    /// Compare time since last access.
    AtimeAge(Cmp, SimDuration),
    /// Compare owner uid.
    Uid(Cmp, u32),
    /// File path lies under this directory prefix.
    Under(String),
    /// Final path component matches this wildcard pattern.
    NameMatches(String),
    /// File currently placed in the named pool.
    InPool(String),
    /// File is in the given HSM residency state.
    Hsm(HsmState),
    Not(Box<Predicate>),
    All(Vec<Predicate>),
    Any(Vec<Predicate>),
}

impl Predicate {
    fn eval(&self, file: &FileView<'_>, now: SimInstant) -> bool {
        match self {
            Predicate::True => true,
            Predicate::SizeBytes(cmp, v) => cmp.holds(file.size, *v),
            Predicate::MtimeAge(cmp, age) => cmp.holds(now.saturating_since(file.mtime), *age),
            Predicate::AtimeAge(cmp, age) => cmp.holds(now.saturating_since(file.atime), *age),
            Predicate::Uid(cmp, v) => cmp.holds(file.uid, *v),
            Predicate::Under(prefix) => copra_vfs::is_under(file.path, prefix),
            Predicate::NameMatches(pat) => {
                let name = file.path.rsplit('/').next().unwrap_or("");
                wildcard_match(pat, name)
            }
            Predicate::InPool(p) => file.pool == p.as_str(),
            Predicate::Hsm(s) => file.hsm == *s,
            Predicate::Not(inner) => !inner.eval(file, now),
            Predicate::All(ps) => ps.iter().all(|p| p.eval(file, now)),
            Predicate::Any(ps) => ps.iter().any(|p| p.eval(file, now)),
        }
    }

    /// True if evaluating this predicate may read the file's path.
    pub fn reads_path(&self) -> bool {
        match self {
            Predicate::Under(_) | Predicate::NameMatches(_) => true,
            Predicate::Not(inner) => inner.reads_path(),
            Predicate::All(ps) | Predicate::Any(ps) => ps.iter().any(Predicate::reads_path),
            Predicate::True
            | Predicate::SizeBytes(..)
            | Predicate::MtimeAge(..)
            | Predicate::AtimeAge(..)
            | Predicate::Uid(..)
            | Predicate::InPool(_)
            | Predicate::Hsm(_) => false,
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        match self {
            Predicate::All(mut v) => {
                v.push(other);
                Predicate::All(v)
            }
            p => Predicate::All(vec![p, other]),
        }
    }
}

/// What a matched rule asks for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Initial placement into a pool (evaluated at create time).
    Place { pool: String },
    /// Emit the file onto a named candidate list (the integration's
    /// preferred mode, §4.2.4).
    List { list: String },
    /// Stop processing this file (GPFS `EXCLUDE`).
    Exclude,
}

/// One policy rule. Rules are evaluated in order; the first whose predicate
/// holds decides the file (GPFS semantics).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    pub name: String,
    pub action: Action,
    pub predicate: Predicate,
}

impl Rule {
    pub fn list(name: &str, list: &str, predicate: Predicate) -> Rule {
        Rule {
            name: name.to_string(),
            action: Action::List {
                list: list.to_string(),
            },
            predicate,
        }
    }

    pub fn exclude(name: &str, predicate: Predicate) -> Rule {
        Rule {
            name: name.to_string(),
            action: Action::Exclude,
            predicate,
        }
    }
}

/// Result of a policy scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanReport {
    /// Files matched per LIST rule, keyed by list name.
    pub lists: BTreeMap<String, Vec<FileRecord>>,
    /// Total regular files examined.
    pub scanned: usize,
    /// Wall-clock time of the scan until its report is built (real time:
    /// the "1M inodes in 10 minutes" figure is about scan machinery).
    pub wall_seconds: f64,
}

/// The scanning engine.
#[derive(Debug, Clone, Default)]
pub struct PolicyEngine {
    rules: Vec<Rule>,
}

impl PolicyEngine {
    pub fn new(rules: Vec<Rule>) -> Self {
        PolicyEngine { rules }
    }

    /// Whether any rule reads the path; if none does, a scan builds paths
    /// only for the files that match.
    pub fn reads_path(&self) -> bool {
        self.rules.iter().any(|r| r.predicate.reads_path())
    }

    #[cfg(test)]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Index of the first rule whose predicate holds for `file`, if any
    /// (GPFS first-match-wins semantics). This is the per-file kernel that
    /// streaming scans fuse into their namespace traversal: callers tag
    /// matches as they go instead of materializing every record first.
    pub fn classify(&self, file: &FileView<'_>, now: SimInstant) -> Option<usize> {
        self.rules
            .iter()
            .position(|rule| rule.predicate.eval(file, now))
    }

    /// Build a [`ScanReport`], timed from `started`, from runs of `(matched
    /// rule index, record)` pairs, each sorted by [`tagged_order`]. One
    /// merge pushes each record into the `Vec` of the first rule feeding
    /// its list, so a list holds rule order, then path order. Paths are
    /// unique, so the report does not depend on how the runs split.
    pub(crate) fn assemble(
        &self,
        runs: Vec<Vec<(usize, FileRecord)>>,
        scanned: usize,
        started: std::time::Instant,
    ) -> ScanReport {
        let rules = &self.rules;
        let first_alike: Vec<usize> = (rules.iter())
            .map(|r| rules.iter().take_while(|o| o.action != r.action).count())
            .collect();
        let mut groups = vec![Vec::new(); rules.len()];
        merge_runs(runs, tagged_order, |(idx, rec)| {
            groups[first_alike[idx]].push(rec)
        });
        let lists = (rules.iter().zip(groups))
            .filter_map(|(rule, files)| match &rule.action {
                Action::List { list } if !files.is_empty() => Some((list.clone(), files)),
                Action::List { .. } | Action::Exclude | Action::Place { .. } => None,
            })
            .collect();
        ScanReport {
            lists,
            scanned,
            wall_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Placement decision for a new file: the pool named by the first
    /// matching `Place` rule, if any. Non-`Place` rules are skipped (GPFS
    /// keeps placement and management policies separate).
    pub fn place(&self, file: &FileView<'_>, now: SimInstant) -> Option<&str> {
        self.rules.iter().find_map(|r| match &r.action {
            Action::Place { pool } if r.predicate.eval(file, now) => Some(pool.as_str()),
            _ => None,
        })
    }
}

/// The order of a policy scan's tagged matches: by rule index, then path.
pub(crate) fn tagged_order(a: &(usize, FileRecord), b: &(usize, FileRecord)) -> Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.path.cmp(&b.1.path))
}

/// Hand every item of `runs`, each sorted by `order`, to `emit` in `order`
/// (items must be distinct). Runs are few, one per scan thread, so a
/// linear pass over their heads finds the least.
pub(crate) fn merge_runs<T>(
    runs: Vec<Vec<T>>,
    order: impl Fn(&T, &T) -> Ordering,
    mut emit: impl FnMut(T),
) {
    let mut heads: Vec<(T, std::vec::IntoIter<T>)> = (runs.into_iter().map(Vec::into_iter))
        .filter_map(|mut run| Some((run.next()?, run)))
        .collect();
    while heads.len() > 1 {
        let least = (0..heads.len())
            .min_by(|&a, &b| order(&heads[a].0, &heads[b].0))
            .expect("two or more heads");
        emit(match heads[least].1.next() {
            Some(next) => std::mem::replace(&mut heads[least].0, next),
            None => heads.swap_remove(least).0,
        });
    }
    if let Some((head, rest)) = heads.pop() {
        emit(head);
        rest.for_each(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, size: u64, hsm: HsmState) -> FileRecord {
        FileRecord {
            path: path.to_string(),
            ino: Ino(1),
            size,
            uid: 1000,
            mtime: SimInstant::EPOCH,
            atime: SimInstant::EPOCH,
            pool: PoolId(0),
            hsm,
        }
    }

    /// Serial classify + assemble over a slice of records in pool `fast`,
    /// as one sorted run.
    fn scan(engine: &PolicyEngine, records: &[FileRecord]) -> ScanReport {
        let mut tagged: Vec<_> = records
            .iter()
            .filter_map(|r| {
                engine
                    .classify(&r.view("fast"), SimInstant::EPOCH)
                    .map(|i| (i, r.clone()))
            })
            .collect();
        tagged.sort_by(tagged_order);
        engine.assemble(vec![tagged], records.len(), std::time::Instant::now())
    }

    #[test]
    fn scalar_predicates() {
        let owned = rec("/data/a.dat", 500, HsmState::Resident);
        let r = owned.view("fast");
        let now = SimInstant::from_secs(100);
        assert!(Predicate::SizeBytes(Cmp::Lt, 1000).eval(&r, now));
        assert!(!Predicate::SizeBytes(Cmp::Gt, 1000).eval(&r, now));
        assert!(Predicate::MtimeAge(Cmp::Ge, SimDuration::from_secs(100)).eval(&r, now));
        assert!(!Predicate::MtimeAge(Cmp::Gt, SimDuration::from_secs(100)).eval(&r, now));
        assert!(Predicate::Uid(Cmp::Eq, 1000).eval(&r, now));
        assert!(Predicate::Under("/data".to_string()).eval(&r, now));
        assert!(!Predicate::Under("/other".to_string()).eval(&r, now));
        assert!(Predicate::NameMatches("*.dat".to_string()).eval(&r, now));
        assert!(Predicate::InPool("fast".to_string()).eval(&r, now));
        assert!(Predicate::Hsm(HsmState::Resident).eval(&r, now));
    }

    #[test]
    fn combinators() {
        let owned = rec("/data/a.dat", 500, HsmState::Resident);
        let r = owned.view("fast");
        let now = SimInstant::EPOCH;
        let p = Predicate::SizeBytes(Cmp::Lt, 1000).and(Predicate::InPool("fast".to_string()));
        assert!(p.eval(&r, now));
        assert!(!Predicate::Not(Box::new(p.clone())).eval(&r, now));
        assert!(Predicate::Any(vec![Predicate::SizeBytes(Cmp::Gt, 1_000_000), p]).eval(&r, now));
        assert!(Predicate::All(vec![]).eval(&r, now)); // vacuous truth
        assert!(!Predicate::Any(vec![]).eval(&r, now));
    }

    #[test]
    fn first_match_wins_and_exclude_stops() {
        let engine = PolicyEngine::new(vec![
            Rule::exclude("skip-tmp", Predicate::NameMatches("*.tmp".to_string())),
            Rule::list("small", "small-files", Predicate::SizeBytes(Cmp::Lt, 1000)),
            Rule::list("rest", "tape", Predicate::True),
        ]);
        let records = vec![
            rec("/a/x.tmp", 10, HsmState::Resident),
            rec("/a/small", 10, HsmState::Resident),
            rec("/a/big", 10_000, HsmState::Resident),
        ];
        let report = scan(&engine, &records);
        assert_eq!(report.scanned, 3);
        assert_eq!(report.lists["small-files"].len(), 1);
        assert_eq!(report.lists["small-files"][0].path, "/a/small");
        assert_eq!(report.lists["tape"].len(), 1);
        assert_eq!(report.lists["tape"][0].path, "/a/big");
    }

    #[test]
    fn scan_output_is_sorted_and_deterministic() {
        let engine = PolicyEngine::new(vec![Rule::list("all", "all", Predicate::True)]);
        let records: Vec<_> = (0..100)
            .rev()
            .map(|i| rec(&format!("/f/{i:03}"), i, HsmState::Resident))
            .collect();
        let report = scan(&engine, &records);
        let paths: Vec<_> = report.lists["all"].iter().map(|r| r.path.clone()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn placement_uses_only_place_rules() {
        let engine = PolicyEngine::new(vec![
            Rule::list("noise", "x", Predicate::True),
            Rule {
                name: "small-to-slow".to_string(),
                action: Action::Place {
                    pool: "slow".to_string(),
                },
                predicate: Predicate::SizeBytes(Cmp::Lt, 1024),
            },
            Rule {
                name: "default".to_string(),
                action: Action::Place {
                    pool: "fast".to_string(),
                },
                predicate: Predicate::True,
            },
        ]);
        let small = rec("/s", 10, HsmState::Resident);
        let big = rec("/b", 1_000_000, HsmState::Resident);
        assert_eq!(
            engine.place(&small.view(""), SimInstant::EPOCH),
            Some("slow")
        );
        assert_eq!(engine.place(&big.view(""), SimInstant::EPOCH), Some("fast"));
    }

    #[test]
    fn reads_path_sees_through_combinators() {
        let size = || Predicate::SizeBytes(Cmp::Lt, 10);
        let under = || Predicate::Under("/a".to_string());
        let name = || Predicate::NameMatches("*.tmp".to_string());
        for p in [
            under(),
            name(),
            Predicate::Not(Box::new(under())),
            size().and(name()),
            Predicate::Any(vec![size(), Predicate::All(vec![size(), under()])]),
            Predicate::Not(Box::new(Predicate::Any(vec![Predicate::Not(Box::new(
                name(),
            ))]))),
        ] {
            assert!(p.reads_path(), "{p:?}");
        }
        for p in [
            Predicate::True,
            size(),
            Predicate::InPool("fast".to_string()),
            Predicate::Hsm(HsmState::Migrated),
            Predicate::Not(Box::new(size())),
            Predicate::All(vec![]),
            Predicate::Any(vec![size(), Predicate::All(vec![Predicate::True])]),
        ] {
            assert!(!p.reads_path(), "{p:?}");
        }
        let path_free = || Rule::list("l", "l", size());
        assert!(!PolicyEngine::new(vec![path_free(), path_free()]).reads_path());
        assert!(PolicyEngine::new(vec![path_free(), Rule::exclude("x", name())]).reads_path());
        assert!(!PolicyEngine::default().reads_path());
    }
}
