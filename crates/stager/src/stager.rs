//! The stager orchestrator: typed submits in, fair tape-ordered recall
//! dispatch out.
//!
//! A submit resolves the path once, consults the stager pool (cache hit:
//! served off disk, zero tape mounts), gets an admission verdict, and
//! parks in the fair-share queue. Dispatch rounds pick users fairly,
//! sort the picked batch tape-ordered (§4.2.5 composed *inside* the
//! fairness round), and push each recall through the HSM under the
//! submit's trace span — `stager.submit → stager.queue → stager.dispatch
//! → hsm.recall`. The admission window tracks fleet health, so fenced
//! drives shrink throughput instead of stalling the queue.

use crate::admission::{Admission, AdmissionController};
use crate::cache::{PoolReject, StagerPool};
use crate::queue::{FairShareQueue, QueuedRecall};
use crate::request::RecallRequest;
use copra_cluster::NodeId;
use copra_hsm::{DataPath, Hsm, HsmResult};
use copra_obs::{Counter, Gauge, Histogram};
use copra_pfs::{HsmState, PoolId};
use copra_simtime::{DataSize, SimDuration, SimInstant};
use copra_trace::{finish_opt, Tracer};
use copra_vfs::Ino;
use parking_lot::Mutex;
use std::sync::Arc;

/// How dispatch selects requests from the backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Global arrival order, no fairness, no aging — the unscheduled
    /// baseline the bench compares against.
    Fifo,
    /// Per-user/per-group byte-weighted fair share with priority aging.
    #[default]
    FairShare,
}

/// Queue length at which new submits are shed.
const QUEUE_HIGH_WATERMARK: usize = 4096;

/// Stager tuning knobs. `Default` is the paper-scale deployment; adjust
/// a field with struct-update syntax (`..StagerConfig::default()`).
#[derive(Debug, Clone)]
pub struct StagerConfig {
    pub mode: SchedulerMode,
    /// Max requests picked per fairness round.
    pub batch_size: usize,
    /// One effective-priority level gained per this much queue wait.
    pub aging_step: SimDuration,
    /// In-flight recall bound per healthy drive (the admission window).
    pub max_inflight_per_drive: usize,
    /// Stager pool (disk cache) capacity; zero disables caching.
    pub cache_capacity: DataSize,
    /// Sort each dispatch batch by (tape, on-tape seq) — §4.2.5 composed
    /// with fairness. Off measures the cost of dispatching in pure
    /// fairness order.
    pub tape_ordered: bool,
}

impl Default for StagerConfig {
    fn default() -> Self {
        StagerConfig {
            mode: SchedulerMode::FairShare,
            batch_size: 32,
            aging_step: SimDuration::from_secs(30),
            max_inflight_per_drive: 2,
            cache_capacity: DataSize::gb(64),
            tape_ordered: true,
        }
    }
}

/// One finished recall, as the bench and tests consume it.
#[derive(Debug, Clone, Copy)]
pub struct RecallCompletion {
    pub seq_no: u64,
    pub user: u32,
    pub group: u32,
    pub bytes: u64,
    pub submitted: SimInstant,
    pub completed: SimInstant,
    /// Served from the stager pool — zero tape activity.
    pub cache_hit: bool,
}

/// What one dispatch round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchReport {
    /// Recalls pushed to tape this round.
    pub dispatched: usize,
    /// Requests served without tape (pool hits coalesced in the queue).
    pub coalesced: usize,
    /// Latest completion instant of this round's work.
    pub makespan: Option<SimInstant>,
    /// When the admission window next opens, if it is currently full.
    pub next_completion: Option<SimInstant>,
}

struct StagerState {
    queue: FairShareQueue,
    pool: StagerPool,
    admission: AdmissionController,
    next_seq: u64,
    next_node: u32,
    completions: Vec<RecallCompletion>,
}

struct StagerMetrics {
    submitted: Arc<Counter>,
    accepted: Arc<Counter>,
    queued: Arc<Counter>,
    shed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_bypass: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    dispatched: Arc<Counter>,
    rounds: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    wait_ms: Arc<Histogram>,
    latency_ms: Arc<Histogram>,
}

/// The CASTOR-style stager front end over one HSM.
pub struct Stager {
    hsm: Hsm,
    cfg: StagerConfig,
    state: Mutex<StagerState>,
    metrics: StagerMetrics,
}

impl Stager {
    pub fn new(hsm: Hsm, cfg: StagerConfig) -> Self {
        let obs = hsm.server().obs().clone();
        let metrics = StagerMetrics {
            submitted: obs.counter("stager.submitted"),
            accepted: obs.counter("stager.accepted"),
            queued: obs.counter("stager.queued"),
            shed: obs.counter("stager.shed"),
            cache_hits: obs.counter("stager.cache.hits"),
            cache_misses: obs.counter("stager.cache.misses"),
            cache_bypass: obs.counter("stager.cache.bypass"),
            cache_evictions: obs.counter("stager.cache.evictions"),
            dispatched: obs.counter("stager.dispatched"),
            rounds: obs.counter("stager.rounds"),
            queue_depth: obs.gauge("stager.queue.depth"),
            inflight: obs.gauge("stager.inflight"),
            wait_ms: obs.histogram("stager.wait_ms"),
            latency_ms: obs.histogram("stager.latency_ms"),
        };
        let pool = StagerPool::new(cfg.cache_capacity.as_bytes());
        Stager {
            hsm,
            cfg,
            state: Mutex::new(StagerState {
                queue: FairShareQueue::new(),
                pool,
                admission: AdmissionController::new(),
                next_seq: 0,
                next_node: 0,
                completions: Vec::new(),
            }),
            metrics,
        }
    }

    fn tracer(&self) -> &Tracer {
        self.hsm.server().obs().tracer()
    }

    /// Parked requests right now.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// (hits, misses, bypasses, evictions) counters of the stager pool.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.metrics.cache_hits.get(),
            self.metrics.cache_misses.get(),
            self.metrics.cache_bypass.get(),
            self.metrics.cache_evictions.get(),
        )
    }

    /// Is this path's disk copy currently held by the stager pool?
    pub fn pool_contains(&self, path: &str) -> HsmResult<bool> {
        let ino = self.hsm.pfs().resolve(path)?;
        Ok(self.state.lock().pool.contains(ino))
    }

    /// Pin (or unpin) a pooled path. Returns false when not pooled.
    pub fn set_pinned(&self, path: &str, pinned: bool) -> HsmResult<bool> {
        let ino = self.hsm.pfs().resolve(path)?;
        Ok(self.state.lock().pool.set_pinned(ino, pinned))
    }

    /// Explicitly evict a pooled path (refused while pinned). Punches the
    /// hole back, returning the file to tape-only residency.
    pub fn evict(&self, path: &str) -> HsmResult<bool> {
        let ino = self.hsm.pfs().resolve(path)?;
        let mut st = self.state.lock();
        if st.pool.is_pinned(ino) || !st.pool.evict(ino) {
            return Ok(false);
        }
        drop(st);
        self.hsm.pfs().punch_hole(ino)?;
        self.metrics.cache_evictions.inc();
        Ok(true)
    }

    /// Take (and clear) the finished-recall log.
    pub fn take_completions(&self) -> Vec<RecallCompletion> {
        std::mem::take(&mut self.state.lock().completions)
    }

    /// Submit one typed recall request at `now`. Pool hits are served
    /// immediately (zero tape activity); misses get an admission verdict
    /// and, unless shed, park in the fair-share queue until a
    /// [`Stager::dispatch_round`].
    pub fn submit(&self, req: RecallRequest, now: SimInstant) -> HsmResult<Admission> {
        self.metrics.submitted.inc();
        let pfs = self.hsm.pfs();
        let ino = pfs.resolve(&req.path)?;
        let tracer = self.tracer();
        // A file is submitted many times: key the root per call.
        let guard = tracer.root_seq("stager.submit", now);
        let ctx = guard.as_ref().map(|g| g.ctx());

        let file = pfs.residency(ino)?;
        if file.region.state != HsmState::Migrated {
            // Data is on disk: a stager-pool hit (tracked) or a direct
            // disk serve (resident / pool-rejected premigrated).
            let bytes = file.size;
            let mut st = self.state.lock();
            let (end, pooled) = self.serve_off_disk(&mut st, ino, file.pool, bytes, now);
            if pooled && req.pin {
                st.pool.set_pinned(ino, true);
            }
            let seq_no = st.next_seq;
            st.next_seq += 1;
            st.queue.charge_served(req.user, req.group, bytes);
            st.completions.push(RecallCompletion {
                seq_no,
                user: req.user,
                group: req.group,
                bytes,
                submitted: now,
                completed: end,
                cache_hit: pooled,
            });
            drop(st);
            self.metrics.accepted.inc();
            self.metrics.latency_ms.record(ms(end, now));
            self.metrics.wait_ms.record(0);
            tracer.record_closed(ctx, "stager.cache.hit", ino.0, now, end, None);
            finish_opt(guard, end);
            return Ok(Admission::Accepted);
        }

        // Miss: resolve the tape address once, at submit time.
        let objid = file
            .region
            .objid
            .ok_or(copra_hsm::HsmError::NoSuchObject(0))?;
        let obj = self.hsm.server().get(objid)?;
        self.metrics.cache_misses.inc();

        let mut st = self.state.lock();
        let depth = st.queue.len();
        if depth >= QUEUE_HIGH_WATERMARK {
            self.metrics.shed.inc();
            tracer.record_closed(ctx, "stager.shed", depth as u64, now, now, None);
            finish_opt(guard, now);
            return Ok(Admission::Shed { depth });
        }
        let slots = st.admission.open_slots(
            self.hsm.server().library(),
            now,
            self.cfg.max_inflight_per_drive,
        );
        let seq_no = st.next_seq;
        st.next_seq += 1;
        st.queue.push(QueuedRecall {
            seq_no,
            ino,
            bytes: obj.len,
            tape: obj.addr.tape,
            tape_seq: obj.addr.seq,
            submitted: now,
            ctx,
            request: req,
        });
        let depth_after = st.queue.len();
        self.metrics.queue_depth.set(depth_after as i64);
        drop(st);

        let verdict = if slots > depth {
            self.metrics.accepted.inc();
            Admission::Accepted
        } else {
            self.metrics.queued.inc();
            Admission::Queued { depth: depth_after }
        };
        tracer.record_closed(ctx, "stager.admit", depth_after as u64, now, now, None);
        finish_opt(guard, now);
        Ok(verdict)
    }

    /// Run one dispatch round at `now`: fill the open admission window
    /// with a fairness-picked (or FIFO) batch, tape-order it, and push
    /// each recall through the HSM.
    pub fn dispatch_round(&self, now: SimInstant) -> HsmResult<DispatchReport> {
        self.metrics.rounds.inc();
        let mut st = self.state.lock();
        // An empty queue reads no fleet health: it only prunes the window.
        let slots = if st.queue.is_empty() {
            st.admission.inflight(now);
            0
        } else {
            let fleet = self.hsm.server().library();
            st.admission
                .open_slots(fleet, now, self.cfg.max_inflight_per_drive)
        };
        let mut report = DispatchReport {
            next_completion: st.admission.next_completion(now),
            ..Default::default()
        };
        if slots == 0 {
            return Ok(report);
        }
        let nodes = self.hsm.cluster().node_count() as u32;
        let tracer = self.tracer();
        let take = slots.min(self.cfg.batch_size);
        let mut batch = match self.cfg.mode {
            SchedulerMode::FairShare => st.queue.select_round(now, self.cfg.aging_step, take),
            // FIFO ignores priorities and shares: a huge aging step with
            // uniform effective priority reduces the fair order to
            // arrival order only if shares are ignored too, so FIFO gets
            // its own arrival-order pick.
            SchedulerMode::Fifo => st.queue.select_fifo(take),
        };
        if self.cfg.tape_ordered {
            batch.sort_by_key(|i| (i.tape.0, i.tape_seq, i.seq_no));
        }
        for item in batch {
            // Coalesce: an earlier entry for the same file may have
            // already recalled it — serve this one off disk, no slot.
            let file = self.hsm.pfs().residency(item.ino)?;
            if file.region.state != HsmState::Migrated {
                let (end, pooled) =
                    self.serve_off_disk(&mut st, item.ino, file.pool, item.bytes, now);
                self.finish_item(&mut st, tracer, &item, now, end, pooled);
                report.coalesced += 1;
                report.makespan = report.makespan.max(Some(end));
                continue;
            }
            let node = NodeId(st.next_node % nodes);
            st.next_node = st.next_node.wrapping_add(1);
            let qctx = tracer
                .record_closed(
                    item.ctx,
                    "stager.queue",
                    item.seq_no,
                    item.submitted,
                    now,
                    None,
                )
                .or(item.ctx);
            let dguard = tracer.span(qctx, "stager.dispatch", item.ino.0, now);
            let dctx = dguard.as_ref().map(|g| g.ctx());
            let end = self
                .hsm
                .recall_file(item.ino, node, DataPath::LanFree, now, dctx)?;
            finish_opt(dguard, end);
            st.admission.launched(end);
            self.metrics.dispatched.inc();
            self.pool_admit(&mut st, item.ino, item.bytes, item.request.pin)?;
            self.finish_item(&mut st, tracer, &item, now, end, false);
            report.dispatched += 1;
            report.makespan = report.makespan.max(Some(end));
        }
        self.metrics.queue_depth.set(st.queue.len() as i64);
        self.metrics.inflight.set(st.admission.inflight(now) as i64);
        report.next_completion = st.admission.next_completion(now);
        Ok(report)
    }

    /// Serve `bytes` of `ino` off its disk `pool` at `now`, counting a
    /// stager-pool hit or a bypass. Returns (completion, pooled).
    fn serve_off_disk(
        &self,
        st: &mut StagerState,
        ino: Ino,
        pool: PoolId,
        bytes: u64,
        now: SimInstant,
    ) -> (SimInstant, bool) {
        let pooled = st.pool.touch(ino);
        if pooled {
            self.metrics.cache_hits.inc();
        } else {
            self.metrics.cache_bypass.inc();
        }
        let r = self
            .hsm
            .pfs()
            .pool(pool)
            .charge_io(now, DataSize::from_bytes(bytes));
        (r.end, pooled)
    }

    /// Place a just-recalled file in the pool, punching holes for LRU
    /// victims — or for the file itself when it cannot be pooled (the
    /// tape copy stays sealed either way, so this never loses data).
    fn pool_admit(&self, st: &mut StagerState, ino: Ino, bytes: u64, pin: bool) -> HsmResult<()> {
        match st.pool.insert(ino, bytes, pin) {
            Ok(victims) => {
                for victim in victims {
                    self.hsm.pfs().punch_hole(victim)?;
                    self.metrics.cache_evictions.inc();
                }
            }
            Err(PoolReject::TooLarge) | Err(PoolReject::AllPinned) => {
                self.hsm.pfs().punch_hole(ino)?;
            }
        }
        Ok(())
    }

    fn finish_item(
        &self,
        st: &mut StagerState,
        tracer: &Tracer,
        item: &QueuedRecall,
        dispatched: SimInstant,
        end: SimInstant,
        cache_hit: bool,
    ) {
        self.metrics.wait_ms.record(ms(dispatched, item.submitted));
        self.metrics.latency_ms.record(ms(end, item.submitted));
        if cache_hit {
            tracer.record_closed(
                item.ctx,
                "stager.cache.hit",
                item.ino.0,
                dispatched,
                end,
                None,
            );
        }
        st.completions.push(RecallCompletion {
            seq_no: item.seq_no,
            user: item.request.user,
            group: item.request.group,
            bytes: item.bytes,
            submitted: item.submitted,
            completed: end,
            cache_hit,
        });
    }

    /// Dispatch rounds until the queue drains, advancing simulated time
    /// to the next in-flight completion whenever the admission window is
    /// full. Returns the makespan (last completion, or `from` when there
    /// was nothing to do).
    pub fn drain(&self, from: SimInstant) -> HsmResult<SimInstant> {
        let mut now = from;
        let mut makespan = from;
        while self.queue_depth() > 0 {
            let report = self.dispatch_round(now)?;
            if let Some(m) = report.makespan {
                makespan = makespan.max(m);
            }
            if report.dispatched == 0 && report.coalesced == 0 {
                // Window full: jump to the next completion. The capacity
                // floor of one slot guarantees this exists.
                match report.next_completion {
                    Some(t) => now = t,
                    None => now += SimDuration::from_millis(1),
                }
            }
        }
        Ok(makespan)
    }
}

fn ms(end: SimInstant, start: SimInstant) -> u64 {
    end.saturating_since(start).as_nanos() / 1_000_000
}
