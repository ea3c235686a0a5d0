//! copra-journal: write-ahead intent log for multi-store metadata
//! mutations.
//!
//! The archive's custom layer (§4.2 of the paper) mutates up to three
//! stores per operation — the GPFS namespace, the TSM server DB, and the
//! MySQL catalog replica — with no atomicity between them. A crash in the
//! middle leaves torn state: a stub whose tape object was never
//! registered, a tape object whose file is gone, a catalog row the server
//! no longer knows. This crate provides the intent journal that makes
//! those operations recoverable:
//!
//! 1. `begin_intent(kind)` — durably records *what is about to happen*
//!    before any store is touched, returning a sequence number.
//! 2. apply the mutations, optionally annotating the intent with facts
//!    learned along the way (e.g. the objid the server allocated).
//! 3. `seal(seq)` — marks the intent complete once every store agrees.
//!
//! Recovery (in copra-core) scans the journal: *sealed* intents are
//! replayed forward (all mutations are idempotent redo), *open* intents
//! are rolled back — unless the operation passed its destructive
//! point-of-no-return (an unlink), in which case it is completed forward.
//! Once an intent is recovered it is `resolve`d and eventually
//! `truncate_sealed` reclaims the log. An operation whose last effect
//! lands after its seal (a migrate's hole punch) resolves its own intent
//! once that effect is applied, so recovery never replays a finished
//! operation over later changes.
//!
//! The journal is in-memory (the whole archive is a simulation) but the
//! protocol — ordering of journal writes relative to store mutations —
//! is exactly what a persistent implementation would enforce.

use copra_obs::{Counter, Gauge, Registry};
use copra_simtime::SimInstant;
use copra_trace::SpanContext;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a journaled operation intends to do. Each variant carries enough
/// to redo or undo the operation without consulting the (possibly torn)
/// stores themselves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntentKind {
    /// Migrate one file to tape and (optionally) punch its disk copy.
    /// `objid` is None until the TSM server allocates one; an open intent
    /// without an objid touched nothing durable yet. Under a replicated
    /// placement policy the intent also tracks the per-replica completion
    /// set: `replica_target` extra copies were intended and `replicas`
    /// holds the objids actually written so far, so a crash mid-
    /// replication rolls the whole group forward or back coherently.
    MigrateCommit {
        ino: u64,
        path: String,
        objid: Option<u64>,
        punch: bool,
        /// Extra replica objids written so far (beyond the primary).
        #[serde(default)]
        replicas: Vec<u64>,
        /// Extra replicas the placement policy intended (0 = unreplicated).
        #[serde(default)]
        replica_target: u32,
    },
    /// Synchronously delete a file and its tape objects (§4.2.6: "in the
    /// same operation"). `objids` is collected before the unlink so
    /// recovery can finish the tape-side deletes.
    SyncDelete {
        ino: u64,
        path: String,
        objids: Vec<u64>,
    },
    /// Purge a trashed entry (same shape as SyncDelete, distinct so the
    /// journal tells trash expiry from user-initiated deletes).
    TrashPurge {
        ino: u64,
        path: String,
        objids: Vec<u64>,
    },
    /// Space-reclaim a tape volume (copy live objects off, rebase
    /// addresses, free the source).
    Reclaim { tape: u32 },
}

impl IntentKind {
    /// Short label for metrics/events.
    pub fn label(&self) -> &'static str {
        match self {
            IntentKind::MigrateCommit { .. } => "migrate-commit",
            IntentKind::SyncDelete { .. } => "sync-delete",
            IntentKind::TrashPurge { .. } => "trash-purge",
            IntentKind::Reclaim { .. } => "reclaim",
        }
    }

    /// Span name for the intent's begin→seal window (span names must be
    /// `'static`, so the label match is duplicated rather than formatted).
    fn span_name(&self) -> &'static str {
        match self {
            IntentKind::MigrateCommit { .. } => "journal.intent.migrate-commit",
            IntentKind::SyncDelete { .. } => "journal.intent.sync-delete",
            IntentKind::TrashPurge { .. } => "journal.intent.trash-purge",
            IntentKind::Reclaim { .. } => "journal.intent.reclaim",
        }
    }
}

/// Lifecycle of an intent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntentState {
    /// Begun but not sealed: the mutations may be partially applied.
    Open,
    /// All stores agree; replayable forward as idempotent redo.
    Sealed,
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntentRecord {
    pub seq: u64,
    pub kind: IntentKind,
    pub state: IntentState,
    pub begun_at: SimInstant,
    pub sealed_at: Option<SimInstant>,
}

#[derive(Debug)]
struct JournalMetrics {
    begun: Arc<Counter>,
    sealed: Arc<Counter>,
    resolved: Arc<Counter>,
    truncated: Arc<Counter>,
    open_intents: Arc<Gauge>,
}

impl JournalMetrics {
    fn new(obs: &Arc<Registry>) -> Self {
        JournalMetrics {
            begun: obs.counter("journal.begun"),
            sealed: obs.counter("journal.sealed"),
            resolved: obs.counter("journal.resolved"),
            truncated: obs.counter("journal.truncated"),
            open_intents: obs.gauge("journal.open_intents"),
        }
    }
}

/// The write-ahead intent log. Cheap to clone via `Arc`; interior
/// mutability makes it shareable across the HSM and core layers.
#[derive(Debug)]
pub struct Journal {
    records: Mutex<BTreeMap<u64, IntentRecord>>,
    next_seq: Mutex<u64>,
    metrics: JournalMetrics,
    /// Registry the journal reports through; also the source of the
    /// tracer.
    obs: Arc<Registry>,
    /// Per-open-intent trace attribution: seq → (parent span at begin,
    /// wall-clock start). Drained at seal into one closed
    /// `journal.intent.<label>` span covering the begin→seal window.
    trace_ctx: Mutex<BTreeMap<u64, IntentTraceCtx>>,
}

/// Trace attribution stashed at `begin_intent`: the parent span the
/// intent was opened under, and the wall-clock nanos when it opened.
type IntentTraceCtx = (Option<SpanContext>, Option<u64>);

impl Journal {
    pub fn new(obs: &Arc<Registry>) -> Arc<Self> {
        Arc::new(Journal {
            records: Mutex::new(BTreeMap::new()),
            next_seq: Mutex::new(1),
            metrics: JournalMetrics::new(obs),
            obs: obs.clone(),
            trace_ctx: Mutex::new(BTreeMap::new()),
        })
    }

    /// Phase one: record the intent before touching any store. Returns
    /// the sequence number the caller threads through to [`seal`].
    ///
    /// [`seal`]: Journal::seal
    pub fn begin_intent(&self, kind: IntentKind, now: SimInstant) -> u64 {
        self.begin_intent_ctx(kind, now, None)
    }

    /// [`Journal::begin_intent`] with the span the mutation runs under
    /// (an HSM migrate, a sync-delete). When the tracer is armed, sealing
    /// the intent records one closed `journal.intent.<label>` span — keyed
    /// by seq, parented under `ctx` — covering begin→seal in both sim and
    /// wall time.
    pub fn begin_intent_ctx(
        &self,
        kind: IntentKind,
        now: SimInstant,
        ctx: Option<SpanContext>,
    ) -> u64 {
        let seq = {
            let mut next = self.next_seq.lock();
            let seq = *next;
            *next += 1;
            seq
        };
        self.records.lock().insert(
            seq,
            IntentRecord {
                seq,
                kind,
                state: IntentState::Open,
                begun_at: now,
                sealed_at: None,
            },
        );
        self.metrics.begun.inc();
        self.metrics.open_intents.add(1);
        if let Some(wall) = self.obs.tracer().wall_now_ns() {
            self.trace_ctx.lock().insert(seq, (ctx, Some(wall)));
        } else if ctx.is_some() {
            self.trace_ctx.lock().insert(seq, (ctx, None));
        }
        seq
    }

    /// Annotate an open `MigrateCommit` with the objid the server
    /// allocated, so rollback/replay can find the tape object.
    pub fn annotate_objid(&self, seq: u64, objid: u64) {
        if let Some(rec) = self.records.lock().get_mut(&seq) {
            if let IntentKind::MigrateCommit { objid: slot, .. } = &mut rec.kind {
                *slot = Some(objid);
            }
        }
    }

    /// Append a completed replica write to an open `MigrateCommit`'s
    /// completion set (journaled **after** the replica's tape record and
    /// DB row exist, like [`Journal::annotate_objid`] for the primary).
    pub fn annotate_replica(&self, seq: u64, objid: u64) {
        if let Some(rec) = self.records.lock().get_mut(&seq) {
            if let IntentKind::MigrateCommit { replicas, .. } = &mut rec.kind {
                replicas.push(objid);
            }
        }
    }

    /// Phase two: every store agrees — mark the intent replay-safe.
    pub fn seal(&self, seq: u64, now: SimInstant) {
        let mut sealed_span = None;
        {
            let mut records = self.records.lock();
            if let Some(rec) = records.get_mut(&seq) {
                if rec.state == IntentState::Open {
                    rec.state = IntentState::Sealed;
                    rec.sealed_at = Some(now);
                    self.metrics.sealed.inc();
                    self.metrics.open_intents.add(-1);
                    sealed_span = Some((rec.kind.span_name(), rec.begun_at));
                }
            }
        }
        if let Some((name, begun_at)) = sealed_span {
            if let Some((ctx, wall_start)) = self.trace_ctx.lock().remove(&seq) {
                self.obs
                    .tracer()
                    .record_closed(ctx, name, seq, begun_at, now, wall_start);
            }
        }
    }

    /// Drop one record: after recovery has redone/undone it, or after
    /// the operation itself applied its last effect.
    pub fn resolve(&self, seq: u64) {
        self.trace_ctx.lock().remove(&seq);
        let mut records = self.records.lock();
        if let Some(rec) = records.remove(&seq) {
            if rec.state == IntentState::Open {
                self.metrics.open_intents.add(-1);
            }
            self.metrics.resolved.inc();
        }
    }

    /// Checkpoint: discard all sealed records (their effects are fully
    /// applied and verified). Returns how many were dropped.
    pub fn truncate_sealed(&self) -> usize {
        let mut records = self.records.lock();
        let before = records.len();
        records.retain(|_, r| r.state != IntentState::Sealed);
        let dropped = before - records.len();
        self.metrics.truncated.add(dropped as u64);
        dropped
    }

    pub fn get(&self, seq: u64) -> Option<IntentRecord> {
        self.records.lock().get(&seq).cloned()
    }

    /// Open intents in sequence order (the rollback work-list).
    pub fn open_intents(&self) -> Vec<IntentRecord> {
        self.records
            .lock()
            .values()
            .filter(|r| r.state == IntentState::Open)
            .cloned()
            .collect()
    }

    /// Sealed intents in sequence order (the replay work-list).
    pub fn sealed_intents(&self) -> Vec<IntentRecord> {
        self.records
            .lock()
            .values()
            .filter(|r| r.state == IntentState::Sealed)
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> (Arc<Journal>, Arc<Registry>) {
        let obs = Registry::new();
        (Journal::new(&obs), obs)
    }

    #[test]
    fn begin_seal_resolve_lifecycle() {
        let (j, obs) = journal();
        let t = SimInstant::from_secs(1);
        let seq = j.begin_intent(
            IntentKind::MigrateCommit {
                ino: 7,
                path: "/a".into(),
                objid: None,
                punch: true,
                replicas: Vec::new(),
                replica_target: 1,
            },
            t,
        );
        assert_eq!(seq, 1);
        assert_eq!(j.open_intents().len(), 1);
        assert!(j.sealed_intents().is_empty());

        j.annotate_objid(seq, 42);
        j.annotate_replica(seq, 43);
        match j.get(seq).unwrap().kind {
            IntentKind::MigrateCommit {
                objid, replicas, ..
            } => {
                assert_eq!(objid, Some(42));
                assert_eq!(replicas, vec![43]);
            }
            other => panic!("wrong kind: {other:?}"),
        }

        j.seal(seq, SimInstant::from_secs(2));
        assert!(j.open_intents().is_empty());
        assert_eq!(j.sealed_intents().len(), 1);
        assert_eq!(
            j.get(seq).unwrap().sealed_at,
            Some(SimInstant::from_secs(2))
        );

        j.resolve(seq);
        assert!(j.is_empty());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("journal.begun"), 1);
        assert_eq!(snap.counter("journal.sealed"), 1);
        assert_eq!(snap.counter("journal.resolved"), 1);
    }

    #[test]
    fn open_gauge_tracks_unsealed_intents() {
        let (j, obs) = journal();
        let t = SimInstant::EPOCH;
        let a = j.begin_intent(IntentKind::Reclaim { tape: 3 }, t);
        let b = j.begin_intent(
            IntentKind::SyncDelete {
                ino: 1,
                path: "/x".into(),
                objids: vec![9],
            },
            t,
        );
        assert_eq!(
            obs.snapshot()
                .gauge("journal.open_intents")
                .map(|g| g.value),
            Some(2)
        );
        j.seal(a, t);
        assert_eq!(
            obs.snapshot()
                .gauge("journal.open_intents")
                .map(|g| g.value),
            Some(1)
        );
        j.resolve(b); // resolving an open intent also drops the gauge
        assert_eq!(
            obs.snapshot()
                .gauge("journal.open_intents")
                .map(|g| g.value),
            Some(0)
        );
    }

    #[test]
    fn truncate_drops_only_sealed() {
        let (j, _obs) = journal();
        let t = SimInstant::EPOCH;
        let a = j.begin_intent(IntentKind::Reclaim { tape: 1 }, t);
        let _b = j.begin_intent(IntentKind::Reclaim { tape: 2 }, t);
        j.seal(a, t);
        assert_eq!(j.truncate_sealed(), 1);
        assert_eq!(j.len(), 1);
        assert_eq!(j.open_intents().len(), 1);
    }

    #[test]
    fn records_round_trip_through_serde() {
        let (j, _obs) = journal();
        let t = SimInstant::from_secs(5);
        let seq = j.begin_intent(
            IntentKind::TrashPurge {
                ino: 11,
                path: "/.trash/f".into(),
                objids: vec![1, 2, 3],
            },
            t,
        );
        let rec = j.get(seq).unwrap();
        let json = serde_json::to_string(&rec).unwrap();
        let back: IntentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn legacy_migrate_commit_json_decodes_with_empty_replica_set() {
        // A journal written before replication has no replica fields;
        // serde(default) must decode it as an unreplicated intent.
        let json = r#"{"MigrateCommit":{"ino":7,"path":"/a","objid":42,"punch":true}}"#;
        let kind: IntentKind = serde_json::from_str(json).unwrap();
        assert_eq!(
            kind,
            IntentKind::MigrateCommit {
                ino: 7,
                path: "/a".into(),
                objid: Some(42),
                punch: true,
                replicas: Vec::new(),
                replica_target: 0,
            }
        );
    }

    #[test]
    fn double_seal_is_idempotent() {
        let (j, obs) = journal();
        let t = SimInstant::EPOCH;
        let seq = j.begin_intent(IntentKind::Reclaim { tape: 1 }, t);
        j.seal(seq, t);
        j.seal(seq, t);
        assert_eq!(obs.snapshot().counter("journal.sealed"), 1);
        assert_eq!(
            obs.snapshot()
                .gauge("journal.open_intents")
                .map(|g| g.value),
            Some(0)
        );
    }
}
