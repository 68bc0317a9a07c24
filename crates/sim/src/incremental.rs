//! Incremental stage-level evaluation with content-addressed caching.
//!
//! Every round of Contango's optimization passes mutates a handful of tree
//! edges and re-evaluates. A full evaluation re-lowers every stage and
//! re-simulates each of them at both supply corners, even though all but the
//! mutated stages (and their downstream cone, whose input slews shift) are
//! unchanged. The [`IncrementalEvaluator`] makes each evaluation proportional
//! to the size of the change instead:
//!
//! * every stage is identified by a 128-bit **content signature**
//!   ([`StageSig`]) over everything that affects its lowered electrical form
//!   — driver electricals, wire lengths/widths, snaking, sink and
//!   downstream-input capacitance, and the in-stage tree shape;
//! * lowered stages ([`LoweredStage`]) are cached by signature, so only
//!   stages whose nodes changed are re-lowered by the caller;
//! * per-stage transition solves are cached by `(supply, direction, input
//!   slew)`. A stage is re-solved only when it is new **or** an upstream
//!   change altered the slew arriving at its driver — exactly the downstream
//!   cone of the mutation. Arrival-time shifts alone are propagated by
//!   addition, without re-solving;
//! * one walk of the stages covers both supply corners. Each stage visit
//!   asks for four transitions (rise and fall at each corner), and only the
//!   cache misses among them reach the solver, as one batch that one
//!   transient kernel call steps as lanes in lockstep;
//! * cached stages and cached solves age by generation, one generation per
//!   evaluation: each records the evaluation that last used it, and one
//!   unused for `KEEP_GENERATIONS` (32) evaluations is evicted. A stage's
//!   solves are swept lazily, at its first visit once `KEEP_GENERATIONS`
//!   evaluations have passed since its last sweep, and always before the
//!   walk: nothing is evicted while an evaluation looks keys up;
//! * with a persistent [`CacheStore`] attached, transition solves — the
//!   one costly result — are also read from and written to the store, so
//!   they outlive the process. Stages are lowered again by every process.
//!
//! With evaluation incremental, tree *construction* dominates what is left
//! of flow runtime; the complementary construction engine lives in
//! `contango_core::construct` (see `docs/architecture.md` at the
//! repository root).
//!
//! Because cached solves are produced by the same
//! `Evaluator::stage_rel_outputs` primitive the full evaluation uses, and a
//! lane of a batched solve computes exactly what a one-transition solve
//! does, an incremental report is bit-identical to a full re-evaluation of
//! the same tree — a property the workspace enforces with equivalence tests
//! rather than trusting the cache keys.
//!
//! "SPICE run" counting is preserved: one [`IncrementalEvaluator::
//! evaluate_slots`] call increments the shared run counter by one, cache
//! hits notwithstanding, so Table-V-style reporting is unchanged.

use crate::evaluator::{
    record_tap, stage_requests, tap_states, EdgeState, EvalOptions, Evaluator, NodeState,
    RelTiming, SolveKey,
};
use crate::netlist::StageDriver;
use crate::report::{CornerReport, EvalReport};
use crate::store::{ByteReader, ByteWriter, CacheCounters, CacheStore, HitTier, StoreKey};
use crate::{DelayModel, RcTree};
use contango_tech::Technology;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cached stages and cached solves unused for this many evaluations are
/// evicted. Rollbacks in the optimization passes reach at most a few
/// evaluations back, so this keeps rejected-round stages and their solves
/// warm while bounding memory.
///
/// Stages age at the end of every evaluation, and a stage unused for this
/// long leaves with all its solves. A stage's solves are swept only at its
/// first visit once this many evaluations have passed since its last
/// sweep, so no evaluation walks every cached key. A visited stage thus
/// holds only the keys used in its last `2 × KEEP_GENERATIONS` evaluations
/// (four per visit: two corners × two directions), however long the passes
/// keep mutating the region upstream of it. Aging replaced a bound of 64
/// solves per stage, cleared when full, which dropped keys the passes'
/// rollbacks asked for again: the full ISPD'09 suite under the transient
/// model made 195,493 solves with it and makes 87,131 with aging.
const KEEP_GENERATIONS: u64 = 32;

/// Whether an entry last used in evaluation `last_used` is still kept in
/// evaluation `gen`: the one aging rule of stages and solves.
fn is_fresh(last_used: u64, gen: u64) -> bool {
    last_used + KEEP_GENERATIONS >= gen
}

/// A multiply-rotate hasher for the evaluator's own maps, whose keys are
/// stage signatures and solve keys: content hashes and float bit patterns
/// the program derives itself, never keys read from outside it. std's
/// SipHash, which guards against keys crafted to collide, was a measurable
/// share of a warm run's lookups.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` keyed through [`WordHasher`].
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// 128-bit content signature of one lowered stage.
///
/// Two stages with the same signature lower to the same electrical stage and
/// therefore share cache entries (symmetric clock trees routinely contain
/// electrically identical stages, which the cache deduplicates for free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSig {
    lo: u64,
    hi: u64,
}

/// Streaming hasher producing a [`StageSig`] from the content walk of a
/// stage. Two independent 64-bit streams (FNV-1a and a splitmix-style
/// multiplier) make accidental collisions across a flow's lifetime
/// negligible.
#[derive(Debug, Clone)]
pub struct SigBuilder {
    lo: u64,
    hi: u64,
}

impl SigBuilder {
    /// Starts a new signature.
    pub fn new() -> Self {
        Self {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    /// Mixes one 64-bit word into both streams.
    pub fn write_u64(&mut self, v: u64) {
        self.lo = (self.lo ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self.lo ^= self.lo >> 32;
        self.hi = (self.hi ^ v.rotate_left(32)).wrapping_mul(0x2545_f491_4f6c_dd1d);
        self.hi ^= self.hi >> 29;
    }

    /// Mixes a float by bit pattern (`-0.0` and `0.0` hash differently,
    /// which errs on the side of re-lowering).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a small tag discriminating record kinds within the walk.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_u64(u64::from(tag));
    }

    /// Mixes an index-sized integer.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mixes a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Finalizes the signature.
    pub fn finish(&self) -> StageSig {
        StageSig {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

impl StageSig {
    /// The raw `(lo, hi)` halves of the signature — the content address
    /// used as a persistent [`StoreKey`].
    pub fn parts(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

impl Default for SigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// What a tap of an isolated stage feeds, in stage-local terms: global stage
/// indices shift when the tree's structure changes, so cached stages refer
/// to their downstream stages by tap ordinal instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalTapKind {
    /// A clock sink with the given sink id.
    Sink(usize),
    /// The `k`-th downstream stage fed by this stage (in lowering order);
    /// resolved to a global stage index through [`StageSlot::children`].
    Child(usize),
}

/// A tap of an isolated stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalTap {
    /// Node index within the stage's [`RcTree`].
    pub node: usize,
    /// What the tap feeds.
    pub kind: LocalTapKind,
}

/// One stage lowered in isolation: the cacheable unit of incremental
/// evaluation.
#[derive(Debug, Clone)]
pub struct LoweredStage {
    /// The stage's driver.
    pub driver: StageDriver,
    /// The RC tree driven by the driver (node 0 is the driver output).
    pub tree: RcTree,
    /// The taps of this stage, in lowering order.
    pub taps: Vec<LocalTap>,
}

/// One stage of an incremental evaluation request. Slot 0 is the root
/// (source-driven) stage; `children[k]` is the slot index of the stage a
/// `LocalTapKind::Child(k)` tap feeds.
#[derive(Debug, Clone)]
pub struct StageSlot {
    /// Content signature of the stage.
    pub sig: StageSig,
    /// Slot indices of the downstream stages, by tap ordinal.
    pub children: Vec<usize>,
    /// The freshly lowered stage; `None` when
    /// [`IncrementalEvaluator::is_cached`] reported the signature as already
    /// cached, in which case the cached lowering is reused.
    pub fresh: Option<LoweredStage>,
}

/// The solve keys held for one stage, each with the evaluation that last
/// used it and where its tap timings start in the stage's flat timing
/// array.
#[derive(Debug, Clone)]
struct AgedSolves {
    keys: WordMap<SolveKey, (u64, usize)>,
    /// The evaluation of the last sweep; at first, the one that cached
    /// the stage.
    swept: u64,
}

impl AgedSolves {
    fn new(gen: u64) -> Self {
        Self {
            keys: WordMap::default(),
            swept: gen,
        }
    }

    /// Ages the keys at a stage's visit in evaluation `gen`: once
    /// [`KEEP_GENERATIONS`] evaluations have passed since the last sweep,
    /// evicts every key unused for that long. Returns how many it evicted.
    fn sweep(&mut self, gen: u64) -> u64 {
        if gen < self.swept + KEEP_GENERATIONS {
            return 0;
        }
        self.swept = gen;
        let held = self.keys.len();
        self.keys
            .retain(|_, (last_used, _)| is_fresh(*last_used, gen));
        (held - self.keys.len()) as u64
    }
}

/// A cached stage: its lowering plus the transition solves it holds.
#[derive(Debug, Clone)]
struct CachedStage {
    stage: LoweredStage,
    total_cap: f64,
    /// Each held solve's key, with where its tap timings start in
    /// `timings`.
    solves: AgedSolves,
    /// The tap timings of every held solve, one run of `stage.taps.len()`
    /// per solve: one array per stage, not one allocation per key.
    timings: Vec<RelTiming>,
    last_used: u64,
}

impl CachedStage {
    /// A stage first used in evaluation `gen`, with no solves yet.
    fn new(stage: LoweredStage, gen: u64) -> Self {
        Self {
            total_cap: stage.tree.total_cap(),
            stage,
            solves: AgedSolves::new(gen),
            timings: Vec::new(),
            last_used: gen,
        }
    }

    /// Ages the stage's solves at its visit in evaluation `gen` (see
    /// [`AgedSolves::sweep`]) and compacts the timings of those kept.
    /// Returns how many solves it evicted.
    fn sweep(&mut self, gen: u64) -> u64 {
        let evicted = self.solves.sweep(gen);
        if evicted > 0 {
            let width = self.stage.taps.len();
            let mut kept = Vec::with_capacity(self.solves.keys.len() * width);
            for (_, start) in self.solves.keys.values_mut() {
                let from = std::mem::replace(start, kept.len());
                kept.extend_from_slice(&self.timings[from..from + width]);
            }
            self.timings = kept;
        }
        evicted
    }
}

/// Cache statistics of an [`IncrementalEvaluator`], for per-job cache
/// profiles, tests, logging and benchmark reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Stage lookups answered from the cache (no re-lowering needed).
    pub stage_hits: u64,
    /// Stage lookups that required a fresh lowering.
    pub stage_misses: u64,
    /// Transition solves answered from the cache.
    pub solve_hits: u64,
    /// Transition solves that ran the stage solver.
    pub solve_misses: u64,
    /// Of the `solve_hits`, those answered from an attached persistent
    /// store rather than the in-memory solve maps.
    pub solve_disk_hits: u64,
    /// Of the `solve_disk_hits`, those answered by entries added to the
    /// store since it was opened rather than by its open-time snapshot
    /// ([`HitTier::Added`]).
    pub added_hits: u64,
    /// In-memory entries aged out after `KEEP_GENERATIONS` (32)
    /// evaluations unused: one per stage (its solves leave with it
    /// uncounted), plus one per solve a sweep of a still-cached stage
    /// evicts (see the module docs).
    pub evictions: u64,
}

/// An attached persistent store plus the evaluation-context fingerprint
/// mixed into its solve keys. A solve depends on its stage's content (the
/// stage signature), the solve key, and the delay model and the
/// technology's derating context, which the fingerprint captures.
#[derive(Debug, Clone)]
struct StoreBinding {
    store: Arc<CacheStore>,
    fingerprint: StageSig,
}

/// A persistent, cache-backed clock-network evaluator.
///
/// Wraps a full [`Evaluator`] (sharing its "SPICE run" counter, so run
/// accounting is identical whichever path produced a report) and adds the
/// per-stage caches described in the module docs. Callers lower stages
/// through `contango_core::lower`, which asks [`Self::is_cached`] before
/// lowering so unchanged stages are never re-lowered.
///
/// With a [`CacheStore`] attached (see [`Self::attach_store`]), solve
/// misses additionally consult the store's on-disk entries, and fresh
/// solves are appended to it — so solves survive process restarts and are
/// shared across concurrent workers. Stored payloads are bit-exact (`f64`s
/// round-trip by bit pattern), so a warm run's reports are byte-identical
/// to a cold run's.
#[derive(Debug)]
pub struct IncrementalEvaluator {
    inner: Evaluator,
    cache: RefCell<WordMap<StageSig, CachedStage>>,
    generation: Cell<u64>,
    stats: Cell<CacheStats>,
    store: RefCell<Option<StoreBinding>>,
    /// The statistics when the running job profile began.
    job_start: Cell<Option<CacheStats>>,
}

impl IncrementalEvaluator {
    /// Creates an incremental evaluator with the default (transient) model.
    pub fn new(tech: Technology) -> Self {
        Self::from_evaluator(Evaluator::new(tech))
    }

    /// Creates an incremental evaluator with explicit options.
    pub fn with_options(tech: Technology, options: EvalOptions) -> Self {
        Self::from_evaluator(Evaluator::with_options(tech, options))
    }

    /// Creates an incremental evaluator using a specific delay model.
    pub fn with_model(tech: Technology, model: crate::DelayModel) -> Self {
        Self::from_evaluator(Evaluator::with_model(tech, model))
    }

    /// Wraps an existing full evaluator (its run counter is shared).
    pub fn from_evaluator(inner: Evaluator) -> Self {
        Self {
            inner,
            cache: RefCell::new(WordMap::default()),
            generation: Cell::new(0),
            stats: Cell::new(CacheStats::default()),
            store: RefCell::new(None),
            job_start: Cell::new(None),
        }
    }

    /// Attaches a persistent store: from now on, solve misses consult the
    /// store and fresh solves are appended to it. Replaces any previously
    /// attached store.
    pub fn attach_store(&self, store: Arc<CacheStore>) {
        let fingerprint = context_fingerprint(&self.inner);
        *self.store.borrow_mut() = Some(StoreBinding { store, fingerprint });
    }

    /// Detaches the persistent store, if any.
    pub fn detach_store(&self) {
        *self.store.borrow_mut() = None;
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<CacheStore>> {
        self.store.borrow().as_ref().map(|b| b.store.clone())
    }

    /// Starts deterministic cache accounting for one job. With a store
    /// attached, drops every cached stage and solve, so the job runs on a
    /// cold evaluator whose memory holds only what this job put there, and
    /// [`Self::take_job_profile`] counts its lookups: a pure function of
    /// the job and the store's open-time snapshot, whatever jobs this
    /// evaluator served before. A no-op (profiling stays off, caches stay
    /// warm) when no store is attached.
    pub fn begin_job_profile(&self) {
        let stored = self.store.borrow().is_some();
        if stored {
            self.clear_cache();
        }
        self.job_start.set(stored.then(|| self.stats.get()));
    }

    /// Finishes the current job profile and returns the job's solve
    /// lookups, the ones a store can answer (zeros when no profile was
    /// running), and its evictions. Store answers from the open-time
    /// snapshot count as `disk_hits`; those from entries added since the
    /// store opened — by this job or by a concurrent one — count as
    /// `misses`, so the counters do not depend on scheduling.
    pub fn take_job_profile(&self) -> CacheCounters {
        let Some(start) = self.job_start.take() else {
            return CacheCounters::default();
        };
        let now = self.stats.get();
        let stored = now.solve_disk_hits - start.solve_disk_hits;
        let added = now.added_hits - start.added_hits;
        CacheCounters {
            mem_hits: now.solve_hits - start.solve_hits - stored,
            disk_hits: stored - added,
            misses: now.solve_misses - start.solve_misses + added,
            evictions: now.evictions - start.evictions,
        }
    }

    /// The wrapped full evaluator — the escape hatch for callers that need a
    /// plain netlist evaluation (construction-time code, verification).
    /// Runs through it count against the same "SPICE run" counter.
    pub fn evaluator(&self) -> &Evaluator {
        &self.inner
    }

    /// The technology in use.
    pub fn technology(&self) -> &Technology {
        self.inner.technology()
    }

    /// The delay model in use.
    pub fn model(&self) -> crate::DelayModel {
        self.inner.model()
    }

    /// Number of evaluations performed so far (the "SPICE run" count),
    /// incremental and full alike.
    pub fn runs(&self) -> usize {
        self.inner.runs()
    }

    /// Resets the run counter.
    pub fn reset_runs(&self) {
        self.inner.reset_runs();
    }

    /// Returns `true` when a stage with this signature is already cached in
    /// memory (in which case [`StageSlot::fresh`] may be `None`).
    pub fn is_cached(&self, sig: StageSig) -> bool {
        self.cache.borrow().contains_key(&sig)
    }

    /// Number of distinct stages currently cached.
    pub fn cached_stages(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Cache statistics accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Drops every cached stage and solve.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Evaluates a clock network presented as stage slots (slot 0 = the
    /// source-driven root stage) at both supply corners.
    ///
    /// Counts as exactly one "SPICE run" regardless of how much of the work
    /// was answered from the caches.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty, or a slot has `fresh == None` for a
    /// signature the cache does not hold (a caller contract violation), or a
    /// child index is out of range.
    pub fn evaluate_slots(&self, slots: Vec<StageSlot>) -> EvalReport {
        assert!(!slots.is_empty(), "cannot evaluate an empty stage list");
        self.inner.count_run();
        let gen = self.generation.get() + 1;
        self.generation.set(gen);
        let mut stats = self.stats.get();
        let binding_ref = self.store.borrow();
        let binding = binding_ref.as_ref();

        let mut cache = self.cache.borrow_mut();
        let mut meta: Vec<(StageSig, Vec<usize>)> = Vec::with_capacity(slots.len());
        // Per-slot stage capacitance, captured while the cache entry is in
        // hand. Summed in slot order — the same order `Netlist::total_cap`
        // sums per-stage subtotals — so the total is bit-identical to the
        // full path.
        let mut total_cap = 0.0_f64;
        for slot in slots {
            let entry = match cache.entry(slot.sig) {
                Entry::Occupied(e) => {
                    let entry = e.into_mut();
                    entry.last_used = gen;
                    stats.evictions += entry.sweep(gen);
                    stats.stage_hits += 1;
                    entry
                }
                Entry::Vacant(v) => {
                    let stage = slot
                        .fresh
                        .expect("stages missing from the cache must be lowered by the caller");
                    stats.stage_misses += 1;
                    v.insert(CachedStage::new(stage, gen))
                }
            };
            total_cap += entry.total_cap;
            meta.push((slot.sig, slot.children));
        }

        let [nominal, low] = self.walk(&mut cache, &mut stats, binding, &meta, gen);
        let buffer_count = meta.len().saturating_sub(1);

        cache.retain(|_, e| {
            let keep = is_fresh(e.last_used, gen);
            if !keep {
                stats.evictions += 1;
            }
            keep
        });
        self.stats.set(stats);

        EvalReport {
            nominal,
            low,
            total_cap,
            slew_limit: self.inner.technology().slew_limit,
            buffer_count,
        }
    }

    /// Evaluates both supply corners over the cached stages in one walk,
    /// mirroring `Evaluator::evaluate` step for step, as evaluation `gen`.
    fn walk(
        &self,
        cache: &mut WordMap<StageSig, CachedStage>,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        meta: &[(StageSig, Vec<usize>)],
        gen: u64,
    ) -> [CornerReport; 2] {
        let tech = self.inner.technology();
        let vdds = [tech.nominal_corner.vdd, tech.low_corner.vdd];
        let n = meta.len();
        let source_slew = match cache[&meta[0].0].stage.driver {
            StageDriver::Source(s) => s.slew,
            // `Netlist::validate` rejects buffer-driven roots on the full
            // path; fail just as loudly here.
            StageDriver::Buffer(_) => panic!("root stage must be driven by the clock source"),
        };
        let source = EdgeState {
            arrival: 0.0,
            slew: source_slew,
        };
        let mut inputs: Vec<Option<[NodeState; 2]>> = vec![None; n];
        inputs[0] = Some(
            [NodeState {
                rise: source,
                fall: source,
            }; 2],
        );

        let mut corners = vdds.map(|vdd| CornerReport {
            vdd,
            sinks: Vec::new(),
            max_slew: 0.0,
        });
        // Per-slot drive tracking, mirroring `Netlist::validate`'s `driven`
        // array: a doubly-driven slot fails at the offending tap, and the
        // final count catches undriven slots.
        let mut driven = vec![false; n];
        driven[0] = true;
        let mut visited = 0usize;
        let mut stack = vec![0usize];
        while let Some(si) = stack.pop() {
            visited += 1;
            let input = inputs[si].expect("stage order guarantees inputs are known");
            let (sig, children) = &meta[si];
            let entry = cache.get_mut(sig).expect("every slot was installed above");
            let requests = stage_requests(vdds, &input, entry.stage.driver.inverting());
            let keys = requests.map(|r| r.1);
            let starts = Self::stage_solves(&self.inner, stats, binding, *sig, entry, &keys, gen);
            let width = entry.stage.taps.len();
            let rel = starts.map(|start| &entry.timings[start..start + width]);

            // Children are pushed in tap order and popped LIFO — the same
            // traversal `Netlist::topological_order` produces.
            let mut pushed: Vec<usize> = Vec::new();
            for (tap_idx, tap) in entry.stage.taps.iter().enumerate() {
                let states = tap_states(&requests, &rel, tap_idx);
                match tap.kind {
                    LocalTapKind::Sink(id) => record_tap(&mut corners, &states, Some(id)),
                    LocalTapKind::Child(k) => {
                        record_tap(&mut corners, &states, None);
                        let child = children[k];
                        assert!(
                            !driven[child],
                            "stage slot {child} is driven more than once"
                        );
                        driven[child] = true;
                        pushed.push(child);
                        inputs[child] = Some(states);
                    }
                }
            }
            stack.extend(pushed);
        }

        // The structural checks `Netlist::new` performs on the full path,
        // preserved here so malformed slot graphs fail loudly instead of
        // producing silently wrong reports: every stage driven exactly once
        // (checked per tap above) and no sink or stage left undriven.
        assert_eq!(
            visited, n,
            "stage slots do not form a tree: only {visited} of {n} stages are driven"
        );
        for corner in &mut corners {
            corner.sinks.sort_by_key(|s| s.sink_id);
            for pair in corner.sinks.windows(2) {
                assert_ne!(
                    pair[0].sink_id, pair[1].sink_id,
                    "sink {} is driven more than once",
                    pair[0].sink_id
                );
            }
        }
        corners
    }

    /// Returns where the tap timings of a cached stage's four transition
    /// solves (in `stage_requests` order) start in its `timings`, solving
    /// only the `(supply, direction, input slew)` combinations not seen
    /// before — in this process (the in-memory solve map) or any earlier
    /// one (the attached store). Every key used is stamped with evaluation
    /// `gen`.
    ///
    /// A pre-scan finds the keys that are neither in the solve map, nor an
    /// earlier key of the batch, nor in the store, and those reach the
    /// solver as one batch; each solved key is then held and written to the
    /// store. Stages sweep and compact their solves before the walk, so
    /// the starts the pre-scan finds stay valid.
    fn stage_solves(
        evaluator: &Evaluator,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        sig: StageSig,
        entry: &mut CachedStage,
        keys: &[SolveKey; 4],
        gen: u64,
    ) -> [usize; 4] {
        /// What the pre-scan found for a key.
        enum Found {
            /// In the solve map, its timings starting here.
            Held(usize),
            /// The same as the batch's `j`-th key, which is not held yet.
            Earlier(usize),
            /// In the store's given tier, decoded.
            Stored(Vec<RelTiming>, HitTier),
            /// Nowhere: the key's index among the batch's solves.
            Solve(usize),
        }
        let CachedStage {
            stage,
            solves,
            timings,
            ..
        } = entry;
        let mut misses: Vec<SolveKey> = Vec::new();
        let found: [Found; 4] = std::array::from_fn(|k| {
            let key = keys[k];
            if let Some((last_used, start)) = solves.keys.get_mut(&key) {
                *last_used = gen;
                Found::Held(*start)
            } else if let Some(j) = keys[..k].iter().position(|&earlier| earlier == key) {
                Found::Earlier(j)
            } else if let Some((rel, tier)) = binding.and_then(|b| {
                let (payload, tier) = b.store.get(solve_store_key(sig, b.fingerprint, key))?;
                Some((decode_solves(&payload, stage.taps.len())?, tier))
            }) {
                Found::Stored(rel, tier)
            } else {
                misses.push(key);
                Found::Solve(misses.len() - 1)
            }
        });
        let solved = if misses.is_empty() {
            Vec::new()
        } else {
            let taps: Vec<usize> = stage.taps.iter().map(|t| t.node).collect();
            let driver = stage.driver.spec();
            evaluator.stage_rel_outputs(
                &stage.tree,
                &taps,
                &driver,
                stage.driver.is_source(),
                &misses,
            )
        };

        let mut hold = |key: SolveKey, rel: &[RelTiming]| {
            let start = timings.len();
            timings.extend_from_slice(rel);
            solves.keys.insert(key, (gen, start));
            start
        };
        let mut starts = [0; 4];
        for (k, found) in found.into_iter().enumerate() {
            starts[k] = match found {
                Found::Held(start) => {
                    stats.solve_hits += 1;
                    start
                }
                Found::Earlier(j) => {
                    stats.solve_hits += 1;
                    starts[j]
                }
                Found::Stored(rel, tier) => {
                    stats.solve_hits += 1;
                    stats.solve_disk_hits += 1;
                    stats.added_hits += u64::from(tier == HitTier::Added);
                    hold(keys[k], &rel)
                }
                Found::Solve(i) => {
                    stats.solve_misses += 1;
                    if let Some(b) = binding {
                        // Cache write failures degrade to a smaller cache,
                        // never to a failed evaluation.
                        let store_key = solve_store_key(sig, b.fingerprint, keys[k]);
                        let _ = b.store.put(store_key, &encode_solves(&solved[i]));
                    }
                    hold(keys[k], &solved[i])
                }
            };
        }
        starts
    }
}

// ---------------------------------------------------------------------------
// Persistent-store key and payload codec of transition solves
// ---------------------------------------------------------------------------

/// The store key of one transition solve: stage signature, evaluation
/// fingerprint and solve key, mixed through the signature hasher.
fn solve_store_key(sig: StageSig, fingerprint: StageSig, key: SolveKey) -> StoreKey {
    let mut b = SigBuilder::new();
    let (slo, shi) = sig.parts();
    b.write_u64(slo);
    b.write_u64(shi);
    let (flo, fhi) = fingerprint.parts();
    b.write_u64(flo);
    b.write_u64(fhi);
    b.write_u64(key.vdd);
    b.write_bool(key.rising);
    b.write_u64(key.input_slew);
    let (lo, hi) = b.finish().parts();
    StoreKey::new(crate::store::NS_SOLVE, lo, hi)
}

/// Fingerprint of everything a transition solve depends on *besides* the
/// stage content and the solve key: the delay model and the technology's
/// voltage-derating context. Mixed into every solve store key so stores
/// shared across models or technologies never serve each other's solves.
///
/// Solve entries are keyed by their inputs, not by the solver's code. A
/// change that moves the solver's numbers (its time step, the kernel's
/// float operations, a delay model's formula) must therefore change this
/// fingerprint too, for example by mixing in a new tag; otherwise a store
/// written before the change keeps serving the old numbers.
fn context_fingerprint(evaluator: &Evaluator) -> StageSig {
    let tech = evaluator.technology();
    let mut b = SigBuilder::new();
    b.write_tag(match evaluator.model() {
        DelayModel::Elmore => 0,
        DelayModel::TwoPole => 1,
        DelayModel::Transient => 2,
    });
    b.write_f64(tech.threshold_voltage);
    b.write_f64(tech.alpha);
    b.write_f64(tech.nominal_corner.vdd);
    b.write_f64(tech.slew_limit);
    b.finish()
}

/// Encodes one transition solve (the per-tap relative timings).
fn encode_solves(rel: &[RelTiming]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(rel.len());
    for t in rel {
        w.put_f64(t.delay);
        w.put_f64(t.slew);
    }
    w.finish()
}

/// Decodes a transition-solve payload; the tap count must match the cached
/// stage's, or the payload is rejected as a cold miss.
fn decode_solves(payload: &[u8], expected_taps: usize) -> Option<Vec<RelTiming>> {
    let mut r = ByteReader::new(payload);
    if r.take_usize()? != expected_taps {
        return None;
    }
    let mut rel = Vec::with_capacity(expected_taps.min(1024));
    for _ in 0..expected_taps {
        rel.push(RelTiming {
            delay: r.take_f64()?,
            slew: r.take_f64()?,
        });
    }
    r.is_done().then_some(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverSpec, SourceSpec};
    use crate::netlist::{Netlist, Stage, Tap, TapKind};

    /// The stages of `netlist` as incremental-evaluation slots, slot `i`
    /// being stage `i` under signature `sigs[i]`.
    fn slots_of(netlist: &Netlist, sigs: &[StageSig]) -> Vec<StageSlot> {
        netlist
            .stages
            .iter()
            .zip(sigs)
            .map(|(stage, &sig)| {
                let mut children = Vec::new();
                let taps = stage
                    .taps
                    .iter()
                    .map(|tap| LocalTap {
                        node: tap.node,
                        kind: match tap.kind {
                            TapKind::Sink(id) => LocalTapKind::Sink(id),
                            TapKind::Stage(child) => {
                                children.push(child);
                                LocalTapKind::Child(children.len() - 1)
                            }
                        },
                    })
                    .collect();
                StageSlot {
                    sig,
                    children,
                    fresh: Some(LoweredStage {
                        driver: stage.driver,
                        tree: stage.tree.clone(),
                        taps,
                    }),
                }
            })
            .collect()
    }

    /// A signature distinguished by `tag`.
    fn sig(tag: usize) -> StageSig {
        let mut b = SigBuilder::new();
        b.write_usize(tag);
        b.finish()
    }

    /// Source → trunk wire → inverter → two asymmetric sink branches, as a
    /// netlist (for the full evaluator) and as slots (for the incremental
    /// one).
    fn two_sink_network() -> (Netlist, Vec<StageSlot>) {
        let tech = Technology::ispd09();
        let buf = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&buf);

        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let trunk = t0.add_node(r0, 120.0, 60.0 + d.input_cap);
        let mut t1 = RcTree::new();
        let r1 = t1.add_root(d.output_cap);
        let a = t1.add_node(r1, 60.0, 35.0);
        let b = t1.add_node(r1, 260.0, 75.0);

        let stage0 = Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: t0,
            taps: vec![Tap {
                node: trunk,
                kind: TapKind::Stage(1),
            }],
        };
        let stage1 = Stage {
            driver: StageDriver::Buffer(d),
            tree: t1,
            taps: vec![
                Tap {
                    node: a,
                    kind: TapKind::Sink(0),
                },
                Tap {
                    node: b,
                    kind: TapKind::Sink(1),
                },
            ],
        };
        let netlist = Netlist::new(vec![stage0, stage1], 0).expect("valid netlist");
        let slots = slots_of(&netlist, &[sig(0), sig(1)]);
        (netlist, slots)
    }

    /// `slots` as a caller presents them once every stage is cached.
    fn reused(slots: &[StageSlot]) -> Vec<StageSlot> {
        slots
            .iter()
            .map(|s| StageSlot {
                sig: s.sig,
                children: s.children.clone(),
                fresh: None,
            })
            .collect()
    }

    /// Rounds of [`churn_round`] that the fixed stage's solves are swept
    /// over: its first sweep evicts nothing, the next three evict.
    const CHURN_ROUNDS: u64 = 4 * KEEP_GENERATIONS + 1;

    /// Round `round` of a churn: [`two_sink_network`] with a trunk
    /// `round` ohms longer under a root signature of its own, so four new
    /// input slews (two corners, two directions) reach the unchanged
    /// buffer stage every round.
    fn churn_round(round: u64) -> (Netlist, Vec<StageSlot>) {
        let (mut n, slots) = two_sink_network();
        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let input_cap = n.stages[1].driver.spec().input_cap;
        n.stages[0].taps[0].node = t0.add_node(r0, 120.0 + round as f64, 60.0 + input_cap);
        n.stages[0].tree = t0;
        let slots = slots_of(&n, &[sig(1000 + round as usize), slots[1].sig]);
        (n, slots)
    }

    /// A source-driven RC chain with one tap per node, so each at its own
    /// depth, feeding `copies` copies of one buffer stage (one signature,
    /// slots `1..=copies`); each copy drives a one-sink leaf stage of its
    /// own. The copies see `copies` distinct input slews per corner and
    /// direction in one evaluation.
    fn fanout_network(copies: usize) -> (Netlist, Vec<StageSlot>) {
        let tech = Technology::ispd09();
        let d = DriverSpec::from_composite(&tech.composite(tech.small_inverter(), 8));
        let mut chain = RcTree::new();
        let mut node = chain.add_root(1.0);
        let mut taps = Vec::new();
        for c in 0..copies {
            node = chain.add_node(node, 40.0, 20.0 + d.input_cap);
            taps.push(Tap {
                node,
                kind: TapKind::Stage(1 + c),
            });
        }
        let mut stages = vec![Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: chain,
            taps,
        }];
        let buffer_stage = |load: f64, kind: TapKind| {
            let mut tree = RcTree::new();
            let root = tree.add_root(d.output_cap);
            let node = tree.add_node(root, 80.0, 30.0 + load);
            Stage {
                driver: StageDriver::Buffer(d),
                tree,
                taps: vec![Tap { node, kind }],
            }
        };
        let mut sigs = vec![sig(0)];
        for c in 0..copies {
            stages.push(buffer_stage(d.input_cap, TapKind::Stage(1 + copies + c)));
            sigs.push(sig(1));
        }
        for c in 0..copies {
            stages.push(buffer_stage(12.0, TapKind::Sink(c)));
            sigs.push(sig(2 + c));
        }
        let netlist = Netlist::new(stages, 0).expect("valid netlist");
        let slots = slots_of(&netlist, &sigs);
        (netlist, slots)
    }

    #[test]
    fn incremental_report_is_bit_identical_to_full() {
        let (netlist, slots) = two_sink_network();
        let tech = Technology::ispd09();
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);
        let inc = IncrementalEvaluator::new(tech);
        let report = inc.evaluate_slots(slots.clone());
        assert_eq!(report, full);
        // Second evaluation: everything hits the caches, result unchanged.
        let report2 = inc.evaluate_slots(reused(&slots));
        assert_eq!(report2, full);
        let stats = inc.stats();
        assert_eq!(stats.stage_misses, 2);
        assert_eq!(stats.stage_hits, 2);
        assert!(stats.solve_hits >= stats.solve_misses);
    }

    #[test]
    fn every_evaluation_counts_one_run() {
        let (netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        assert_eq!(inc.runs(), 0);
        let _ = inc.evaluate_slots(slots.clone());
        let _ = inc.evaluate_slots(reused(&slots));
        // The escape hatch shares the same counter.
        let _ = inc.evaluator().evaluate(&netlist);
        assert_eq!(inc.runs(), 3);
        inc.reset_runs();
        assert_eq!(inc.runs(), 0);
    }

    #[test]
    fn stale_entries_are_evicted() {
        let (_netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots.clone());
        assert_eq!(inc.cached_stages(), 2);
        // Re-evaluate only the root slot's worth of content under a fresh
        // signature for many generations; the original entries age out.
        for i in 0..(KEEP_GENERATIONS + 2) {
            let mut slot = slots[1].clone();
            let mut sig = SigBuilder::new();
            sig.write_u64(1000 + i);
            slot.sig = sig.finish();
            slot.children = vec![];
            let mut root = slots[0].clone();
            let mut rsig = SigBuilder::new();
            rsig.write_u64(5000 + i);
            root.sig = rsig.finish();
            let _ = inc.evaluate_slots(vec![root, slot]);
        }
        assert!(!inc.is_cached(slots[0].sig));
        assert!(!inc.is_cached(slots[1].sig));
    }

    #[test]
    fn bounded_solve_cache_stays_correct_under_slew_churn() {
        // Four new input slews reach the fixed stage every round. Sweeps
        // bound its solve map to the keys of its last 2 × KEEP_GENERATIONS
        // evaluations, every eviction is counted, and results stay
        // bit-identical to full evaluation throughout.
        let tech = Technology::ispd09();
        let fixed = two_sink_network().1[1].sig;
        let inc = IncrementalEvaluator::new(tech.clone());
        let full = Evaluator::new(tech);
        let mut sweeps = 0;
        for round in 0..CHURN_ROUNDS {
            let (n, slots) = churn_round(round);
            let held_before: Vec<SolveKey> = inc
                .cache
                .borrow()
                .get(&fixed)
                .map(|e| e.solves.keys.keys().copied().collect())
                .unwrap_or_default();
            let (before, stages_before) = (inc.stats(), inc.cached_stages() as u64);

            assert_eq!(
                inc.evaluate_slots(slots),
                full.evaluate(&n),
                "round {round}"
            );

            let after = inc.stats();
            let cache = inc.cache.borrow();
            let held = &cache[&fixed].solves.keys;
            assert!(
                held.len() as u64 <= 4 * 2 * KEEP_GENERATIONS,
                "round {round}: the fixed stage holds {} keys",
                held.len()
            );
            let dropped = held_before.iter().filter(|k| !held.contains_key(k)).count() as u64;
            let stages_aged =
                stages_before + (after.stage_misses - before.stage_misses) - cache.len() as u64;
            assert_eq!(
                after.evictions - before.evictions,
                dropped + stages_aged,
                "round {round}: evictions are the fixed stage's dropped keys plus aged-out stages"
            );
            sweeps += usize::from(dropped > 0);
        }
        assert_eq!(
            sweeps, 3,
            "the fixed stage evicts at its 2nd, 3rd and 4th sweeps"
        );

        // The last round's sweep compacted the timings of the keys it kept;
        // the round before reads its keys back from them without a solve.
        let (n, slots) = churn_round(CHURN_ROUNDS - 2);
        let solved = inc.stats().solve_misses;
        assert_eq!(inc.evaluate_slots(slots), full.evaluate(&n));
        assert_eq!(inc.stats().solve_misses, solved);
    }

    #[test]
    fn job_profile_ages_solves_like_a_cold_evaluator() {
        // The churn above sweeps the fixed stage's solves three times. A job
        // profile against an empty store counts exactly the hits, misses
        // and evictions a store-less evaluator observes over it.
        let tech = Technology::ispd09();
        let dir = temp_store_dir("profile-aging");
        let profiled = IncrementalEvaluator::new(tech.clone());
        profiled.attach_store(Arc::new(CacheStore::open(&dir).expect("open")));
        profiled.begin_job_profile();
        let plain = IncrementalEvaluator::new(tech);
        for round in 0..CHURN_ROUNDS {
            let slots = churn_round(round).1;
            let _ = profiled.evaluate_slots(slots.clone());
            let _ = plain.evaluate_slots(slots);
        }
        let profile = profiled.take_job_profile();
        let observed = plain.stats();
        assert!(
            observed.evictions > 2 * 4 * KEEP_GENERATIONS,
            "{observed:?}"
        );
        assert_eq!(profile.disk_hits, 0);
        assert_eq!(profile.mem_hits, observed.solve_hits);
        assert_eq!(profile.misses, observed.solve_misses);
        assert_eq!(profile.evictions, observed.evictions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stage_seen_with_more_than_64_slews_in_one_evaluation_keeps_them() {
        // Twenty copies of one buffer stage, each at its own depth, ask for
        // 80 distinct keys of one signature in one evaluation; all stay
        // held, so evaluating the same tree again solves nothing.
        let tech = Technology::ispd09();
        let (netlist, slots) = fanout_network(20);
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);
        let inc = IncrementalEvaluator::new(tech);
        assert_eq!(inc.evaluate_slots(slots.clone()), full);
        let held = inc.cache.borrow()[&slots[1].sig].solves.keys.len();
        assert_eq!(held, 80, "one signature, 20 depths, 4 keys each");
        let solved = inc.stats().solve_misses;
        assert_eq!(inc.evaluate_slots(reused(&slots)), full);
        assert_eq!(
            inc.stats().solve_misses,
            solved,
            "the second evaluation solves nothing"
        );
    }

    #[test]
    fn a_solve_aged_out_of_memory_is_answered_by_the_store() {
        // The whole test runs as one job profile, whose store answers the
        // aged key from an entry the job itself added after the store
        // opened.
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let buffer_sig = slots[1].sig;
        let dir = temp_store_dir("aged");
        let store = Arc::new(CacheStore::open(&dir).expect("open"));
        let inc = IncrementalEvaluator::new(tech.clone());
        inc.attach_store(store.clone());
        inc.begin_job_profile();
        let _ = inc.evaluate_slots(slots.clone());
        let fingerprint = context_fingerprint(inc.evaluator());
        for (&key, _) in inc.cache.borrow()[&buffer_sig].solves.keys.iter() {
            assert!(
                store
                    .get(solve_store_key(buffer_sig, fingerprint, key))
                    .is_some(),
                "solved key {key:?} is missing from the store"
            );
        }

        // Skip KEEP_GENERATIONS evaluations ahead, as if every cached stage
        // and solve but one of the buffer stage's keys had been used in the
        // last of them: the buffer stage's next visit sweeps that key out.
        let last = inc.generation.get() + KEEP_GENERATIONS;
        inc.generation.set(last);
        let aged = {
            let mut cache = inc.cache.borrow_mut();
            for entry in cache.values_mut() {
                entry.last_used = last;
                for (last_used, _) in entry.solves.keys.values_mut() {
                    *last_used = last;
                }
            }
            let (&key, (last_used, _)) = cache
                .get_mut(&buffer_sig)
                .expect("cached")
                .solves
                .keys
                .iter_mut()
                .next()
                .expect("the buffer stage holds keys");
            *last_used = 1;
            key
        };

        let before = inc.stats();
        let report = inc.evaluate_slots(reused(&slots));
        assert_eq!(report, Evaluator::new(tech).evaluate(&netlist));
        let after = inc.stats();
        assert_eq!(after.evictions, before.evictions + 1, "one key aged out");
        assert_eq!(
            after.solve_disk_hits,
            before.solve_disk_hits + 1,
            "the store answers the aged key"
        );
        assert_eq!(after.solve_misses, before.solve_misses);
        assert!(inc.cache.borrow()[&buffer_sig]
            .solves
            .keys
            .contains_key(&aged));

        // The job counts that answer as a miss, like the solve a cold
        // evaluator without a store would make, and nothing as a disk hit.
        let profile = inc.take_job_profile();
        assert_eq!(profile.disk_hits, 0, "{profile:?}");
        assert_eq!(profile.misses, after.solve_misses + 1, "{profile:?}");
        assert_eq!(profile.mem_hits, after.solve_hits - 1, "{profile:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "root stage must be driven by the clock source")]
    fn buffer_driven_root_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        let buffer_driver = slots[1].fresh.as_ref().expect("fresh").driver;
        slots[0].fresh.as_mut().expect("fresh").driver = buffer_driver;
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "stage slots do not form a tree")]
    fn undriven_stage_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        // Sever the root's child link: slot 1 is never driven.
        slots[0].children.clear();
        slots[0].fresh.as_mut().expect("fresh").taps.clear();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "driven more than once")]
    fn doubly_driven_stage_is_rejected() {
        // Root drives slot 1 through two taps while no one drives anyone
        // else; a global visit count alone would not notice, the per-slot
        // drive tracking must.
        let (_netlist, mut slots) = two_sink_network();
        let root = slots[0].fresh.as_mut().expect("fresh");
        let tap = root.taps[0];
        root.taps.push(LocalTap {
            node: tap.node,
            kind: LocalTapKind::Child(1),
        });
        slots[0].children = vec![1, 1];
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "driven more than once")]
    fn doubly_driven_sink_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        let taps = &mut slots[1].fresh.as_mut().expect("fresh").taps;
        taps[1].kind = LocalTapKind::Sink(0);
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("contango-incremental-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_reloads_solves_bit_identically() {
        let dir = temp_store_dir("warm");
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);

        // Cold run: populate the store.
        {
            let inc = IncrementalEvaluator::new(tech.clone());
            inc.attach_store(Arc::new(CacheStore::open(&dir).expect("open")));
            assert_eq!(inc.evaluate_slots(slots.clone()), full);
            assert_eq!(inc.stats().solve_disk_hits, 0);
        }

        // Warm run in a "new process": the store holds no stages, so both
        // are lowered again, but every solve comes from disk and the
        // report is byte-identical.
        let inc = IncrementalEvaluator::new(tech);
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("reopen")));
        assert!(slots.iter().all(|s| !inc.is_cached(s.sig)));
        assert_eq!(inc.evaluate_slots(slots), full);
        let stats = inc.stats();
        assert_eq!(stats.stage_misses, 2);
        assert_eq!(stats.solve_misses, 0);
        assert_eq!(stats.solve_disk_hits, stats.solve_hits);
        assert!(stats.solve_disk_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_profile_is_deterministic_and_snapshot_based() {
        let dir = temp_store_dir("profile");
        let tech = Technology::ispd09();
        let (_netlist, slots) = two_sink_network();

        let run = |store: Arc<CacheStore>| {
            let inc = IncrementalEvaluator::new(tech.clone());
            inc.attach_store(store);
            inc.begin_job_profile();
            let _ = inc.evaluate_slots(
                slots
                    .iter()
                    .map(|s| StageSlot {
                        sig: s.sig,
                        children: s.children.clone(),
                        fresh: if inc.is_cached(s.sig) {
                            None
                        } else {
                            s.fresh.clone()
                        },
                    })
                    .collect(),
            );
            inc.take_job_profile()
        };

        // Cold: an empty snapshot makes every lookup a miss.
        let cold = run(Arc::new(CacheStore::open(&dir).expect("open")));
        assert_eq!(cold.disk_hits, 0);
        assert!(cold.misses > 0);

        // Warm: the same job against the populated snapshot classifies the
        // same lookups as disk hits — and is reproducible run over run.
        let warm = run(Arc::new(CacheStore::open(&dir).expect("reopen")));
        let warm2 = run(Arc::new(CacheStore::open(&dir).expect("reopen")));
        assert_eq!(warm, warm2);
        assert_eq!(warm.lookups(), cold.lookups());
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.disk_hits, cold.misses);

        // Without begin_job_profile, take returns zeros.
        let inc = IncrementalEvaluator::new(tech.clone());
        assert_eq!(inc.take_job_profile(), CacheCounters::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solve_codec_round_trips() {
        let rel = vec![
            RelTiming {
                delay: 12.5,
                slew: 30.25,
            },
            RelTiming {
                delay: -0.0,
                slew: f64::MIN_POSITIVE,
            },
        ];
        assert_eq!(decode_solves(&encode_solves(&rel), 2), Some(rel.clone()));
        // Tap-count mismatches and truncations are rejected, not trusted.
        assert_eq!(decode_solves(&encode_solves(&rel), 3), None);
        let bytes = encode_solves(&rel);
        assert_eq!(decode_solves(&bytes[..bytes.len() - 1], 2), None);
    }

    #[test]
    fn sig_builder_is_order_sensitive() {
        let mut a = SigBuilder::new();
        a.write_f64(1.0);
        a.write_f64(2.0);
        let mut b = SigBuilder::new();
        b.write_f64(2.0);
        b.write_f64(1.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = SigBuilder::new();
        c.write_f64(1.0);
        c.write_f64(2.0);
        assert_eq!(a.finish(), c.finish());
    }
}
