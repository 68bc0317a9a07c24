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
//!   cache misses among them reach the solver, as one batch that the
//!   transient kernel steps as lanes in lockstep, two at a time. The
//!   bookkeeping of hits, misses, store writes and the per-stage bound then
//!   runs key by key, as a one-key lookup would.
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
use crate::store::{ByteReader, ByteWriter, CacheCounters, CacheStore, StoreKey};
use crate::{DelayModel, DriverSpec, RcTree, SourceSpec};
use contango_tech::Technology;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cached entries untouched for this many evaluations are evicted; rollbacks
/// in the optimization passes reach at most a few evaluations back, so this
/// keeps rejected-round stages warm while bounding memory.
const KEEP_GENERATIONS: u64 = 32;

/// Upper bound on cached transition solves per stage. A stage in steady
/// state sees four keys (two corners × two directions); stages downstream
/// of a repeatedly mutated region accumulate a new input slew per
/// evaluation, and without a bound their solve maps would grow for the
/// flow's lifetime. Clearing a full map drops every solve of that stage,
/// and the passes' rollbacks keep asking for keys solved before the clear,
/// so the cost is not small: on the full ISPD'09 transient suite, 108,574
/// of 195,493 solves recompute a key that was solved earlier in the process
/// and then dropped by this clear. An attached store still answers those
/// keys.
const MAX_SOLVES_PER_STAGE: usize = 64;

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

/// A `HashSet` keyed through [`WordHasher`].
type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

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

/// A cached stage: its lowering plus every transition solve seen so far.
#[derive(Debug, Clone)]
struct CachedStage {
    stage: LoweredStage,
    total_cap: f64,
    solves: WordMap<SolveKey, Vec<RelTiming>>,
    last_used: u64,
}

/// Cache statistics of an [`IncrementalEvaluator`], for tests, logging and
/// benchmark reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Stage lookups answered from the cache (no re-lowering needed).
    pub stage_hits: u64,
    /// Stage lookups that required a fresh lowering.
    pub stage_misses: u64,
    /// Stage lowerings loaded from an attached persistent store; each load
    /// turns what would have been a re-lowering into a memory hit.
    pub stage_disk_hits: u64,
    /// Transition solves answered from the cache.
    pub solve_hits: u64,
    /// Transition solves that ran the stage solver.
    pub solve_misses: u64,
    /// Of the `solve_hits`, those answered from an attached persistent
    /// store rather than the in-memory solve maps.
    pub solve_disk_hits: u64,
    /// In-memory entries discarded by bounds: stages aged out past
    /// `KEEP_GENERATIONS`, plus solves dropped when a stage's solve map
    /// hits `MAX_SOLVES_PER_STAGE` and is cleared.
    pub evictions: u64,
}

/// An attached persistent store plus the evaluation-context fingerprint
/// mixed into its solve keys. Stage signatures cover everything that
/// affects a stage's lowered form (including the wire codes and buffer
/// electricals actually used), so stage payloads are keyed by signature
/// alone; solve results additionally depend on the delay model and the
/// technology's derating context, which the fingerprint captures.
#[derive(Debug, Clone)]
struct StoreBinding {
    store: Arc<CacheStore>,
    fingerprint: StageSig,
}

/// Deterministic per-job cache accounting: simulates the lookups a *cold,
/// dedicated* evaluator would make for this job against the store's
/// open-time snapshot. Unlike the observed [`CacheStats`] — which depend on
/// which jobs warmed this evaluator earlier — the profile is a pure
/// function of (job, snapshot), so the counters reported per job are
/// byte-identical for every worker count and session-pool size.
#[derive(Debug, Default)]
struct JobProfile {
    gen: u64,
    counters: CacheCounters,
    /// Stage signatures this job has looked up, by last-used generation
    /// (mirrors the in-memory cache's `last_used` aging).
    stage_seen: WordMap<StageSig, u64>,
    /// Solve keys this job has looked up, per stage, since that stage's
    /// solve map was last cleared (mirrors `MAX_SOLVES_PER_STAGE`).
    solve_seen: WordMap<StageSig, WordSet<SolveKey>>,
}

impl JobProfile {
    fn classify_stage(&mut self, sig: StageSig, binding: Option<&StoreBinding>) {
        match self.stage_seen.entry(sig) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.counters.mem_hits += 1;
                *e.get_mut() = self.gen;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if binding.is_some_and(|b| b.store.contains_snapshot(stage_store_key(sig))) {
                    self.counters.disk_hits += 1;
                } else {
                    self.counters.misses += 1;
                }
                v.insert(self.gen);
            }
        }
    }

    fn classify_solve(&mut self, sig: StageSig, key: SolveKey, binding: Option<&StoreBinding>) {
        let seen = self.solve_seen.entry(sig).or_default();
        if seen.contains(&key) {
            self.counters.mem_hits += 1;
            return;
        }
        if seen.len() >= MAX_SOLVES_PER_STAGE {
            self.counters.evictions += seen.len() as u64;
            seen.clear();
        }
        seen.insert(key);
        let on_disk = binding.is_some_and(|b| {
            b.store
                .contains_snapshot(solve_store_key(sig, b.fingerprint, key))
        });
        if on_disk {
            self.counters.disk_hits += 1;
        } else {
            self.counters.misses += 1;
        }
    }

    /// Mirrors the end-of-evaluation generation aging of the in-memory
    /// cache: stages unused for `KEEP_GENERATIONS` evaluations are dropped
    /// (together with their solves) and counted as evictions.
    fn end_evaluation(&mut self) {
        let gen = self.gen;
        let Self {
            stage_seen,
            solve_seen,
            counters,
            ..
        } = self;
        stage_seen.retain(|sig, last| {
            let keep = *last + KEEP_GENERATIONS >= gen;
            if !keep {
                counters.evictions += 1;
                solve_seen.remove(sig);
            }
            keep
        });
    }
}

/// A persistent, cache-backed clock-network evaluator.
///
/// Wraps a full [`Evaluator`] (sharing its "SPICE run" counter, so run
/// accounting is identical whichever path produced a report) and adds the
/// per-stage caches described in the module docs. Callers lower stages
/// through `contango_core::lower`, which asks [`Self::is_cached`] before
/// lowering so unchanged stages are never re-lowered.
///
/// With a [`CacheStore`] attached (see [`Self::attach_store`]), cache
/// misses additionally consult the store's on-disk entries, and fresh
/// lowerings and solves are appended to it — so results survive process
/// restarts and are shared across concurrent workers. Stored payloads are
/// bit-exact (`f64`s round-trip by bit pattern), so a warm run's reports
/// are byte-identical to a cold run's.
#[derive(Debug)]
pub struct IncrementalEvaluator {
    inner: Evaluator,
    cache: RefCell<WordMap<StageSig, CachedStage>>,
    generation: Cell<u64>,
    stats: Cell<CacheStats>,
    store: RefCell<Option<StoreBinding>>,
    profile: RefCell<Option<JobProfile>>,
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
            profile: RefCell::new(None),
        }
    }

    /// Attaches a persistent store: from now on, stage and solve misses
    /// consult the store and fresh results are appended to it. Replaces any
    /// previously attached store.
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

    /// Starts deterministic cache accounting for one job. The subsequent
    /// [`Self::take_job_profile`] returns counters that simulate a cold,
    /// dedicated evaluator running the job against the attached store's
    /// open-time snapshot — independent of worker scheduling. A no-op
    /// (profiling stays off) when no store is attached.
    pub fn begin_job_profile(&self) {
        let enabled = self.store.borrow().is_some();
        *self.profile.borrow_mut() = enabled.then(JobProfile::default);
    }

    /// Finishes the current job profile and returns its counters (zeros
    /// when no profile was running).
    pub fn take_job_profile(&self) -> CacheCounters {
        self.profile
            .borrow_mut()
            .take()
            .map(|p| p.counters)
            .unwrap_or_default()
    }

    /// The wrapped full evaluator — the escape hatch for callers that need a
    /// plain netlist evaluation (construction-time code, verification).
    /// Runs through it count against the same "SPICE run" counter.
    pub fn evaluator(&self) -> &Evaluator {
        &self.inner
    }

    /// Draws seeded Monte-Carlo variation samples of `netlist` through this
    /// evaluator's technology and delay model (see
    /// [`crate::variation::monte_carlo_samples`]). Sample evaluations run in
    /// per-sample throwaway evaluators (each sample shifts the supply, so
    /// none can reuse this evaluator's caches) and do not touch the shared
    /// "SPICE run" counter — Table-V-style run counts stay comparable
    /// between variation-aware and nominal-only campaigns.
    pub fn variation_samples(
        &self,
        netlist: &crate::Netlist,
        model: &crate::variation::VariationModel,
        samples: usize,
        seed: u64,
    ) -> Vec<crate::variation::SampleMetrics> {
        crate::variation::monte_carlo_samples(&self.inner, netlist, model, samples, seed)
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

    /// Returns `true` when a stage with this signature is already cached (in
    /// which case [`StageSlot::fresh`] may be `None`).
    ///
    /// With a store attached, a memory miss additionally probes the store
    /// and, on success, installs the decoded lowering in the in-memory
    /// cache — this is how persisted stages avoid re-lowering entirely. A
    /// payload that fails to decode behaves as a plain miss (the caller
    /// re-lowers and the entry is rewritten).
    pub fn is_cached(&self, sig: StageSig) -> bool {
        if self.cache.borrow().contains_key(&sig) {
            return true;
        }
        let binding = self.store.borrow();
        let Some(binding) = binding.as_ref() else {
            return false;
        };
        let Some((payload, _tier)) = binding.store.get(stage_store_key(sig)) else {
            return false;
        };
        let Some(stage) = decode_stage(&payload) else {
            return false;
        };
        let total_cap = stage.tree.total_cap();
        let mut stats = self.stats.get();
        stats.stage_disk_hits += 1;
        self.stats.set(stats);
        self.cache.borrow_mut().insert(
            sig,
            CachedStage {
                stage,
                total_cap,
                solves: WordMap::default(),
                // Not yet used by an evaluation; pin it to the upcoming
                // generation so it cannot age out before the evaluation
                // that asked for it runs.
                last_used: self.generation.get() + 1,
            },
        );
        true
    }

    /// Number of distinct stages currently cached.
    pub fn cached_stages(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Cache statistics accumulated since construction (or the last
    /// [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Resets the cache statistics.
    pub fn reset_stats(&self) {
        self.stats.set(CacheStats::default());
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
        let mut profile_ref = self.profile.borrow_mut();
        let profile = &mut *profile_ref;
        if let Some(p) = profile.as_mut() {
            p.gen += 1;
        }

        let mut cache = self.cache.borrow_mut();
        let mut meta: Vec<(StageSig, Vec<usize>)> = Vec::with_capacity(slots.len());
        // Per-slot stage capacitance, captured while the cache entry is in
        // hand. Summed in slot order — the same order `Netlist::total_cap`
        // sums per-stage subtotals — so the total is bit-identical to the
        // full path.
        let mut total_cap = 0.0_f64;
        for slot in slots {
            if let Some(p) = profile.as_mut() {
                p.classify_stage(slot.sig, binding);
            }
            match cache.entry(slot.sig) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    entry.last_used = gen;
                    total_cap += entry.total_cap;
                    stats.stage_hits += 1;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let stage = slot
                        .fresh
                        .expect("stages missing from the cache must be lowered by the caller");
                    if let Some(b) = binding {
                        // Cache write failures degrade to a smaller cache,
                        // never to a failed evaluation.
                        let _ = b
                            .store
                            .put(stage_store_key(slot.sig), &encode_stage(&stage));
                    }
                    let stage_cap = stage.tree.total_cap();
                    total_cap += stage_cap;
                    v.insert(CachedStage {
                        stage,
                        total_cap: stage_cap,
                        solves: WordMap::default(),
                        last_used: gen,
                    });
                    stats.stage_misses += 1;
                }
            }
            meta.push((slot.sig, slot.children));
        }

        let tech = self.inner.technology();
        let vdds = [tech.nominal_corner.vdd, tech.low_corner.vdd];
        let slew_limit = tech.slew_limit;
        // The job profile classifies solve keys in the order of the
        // per-corner walks this single walk replaced: every nominal-corner
        // key in walk order, then every low-corner key.
        let mut profile_keys = profile
            .is_some()
            .then(<[Vec<(StageSig, SolveKey)>; 2]>::default);
        let [nominal, low] = self.walk(
            &mut cache,
            &mut stats,
            binding,
            profile_keys.as_mut(),
            &meta,
            vdds,
        );
        if let (Some(p), Some(keys)) = (profile.as_mut(), profile_keys) {
            for (sig, key) in keys.into_iter().flatten() {
                p.classify_solve(sig, key, binding);
            }
        }
        let buffer_count = meta.len().saturating_sub(1);

        cache.retain(|_, e| {
            let keep = e.last_used + KEEP_GENERATIONS >= gen;
            if !keep {
                stats.evictions += 1;
            }
            keep
        });
        if let Some(p) = profile.as_mut() {
            p.end_evaluation();
        }
        self.stats.set(stats);

        EvalReport {
            nominal,
            low,
            total_cap,
            slew_limit,
            buffer_count,
        }
    }

    /// Evaluates both supply corners over the cached stages in one walk,
    /// mirroring `Evaluator::evaluate` step for step. Solve keys are pushed
    /// to `profile_keys`, one list per corner, when a job profile runs.
    fn walk(
        &self,
        cache: &mut WordMap<StageSig, CachedStage>,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        mut profile_keys: Option<&mut [Vec<(StageSig, SolveKey)>; 2]>,
        meta: &[(StageSig, Vec<usize>)],
        vdds: [f64; 2],
    ) -> [CornerReport; 2] {
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
            if let Some(lists) = profile_keys.as_mut() {
                for (k, &key) in keys.iter().enumerate() {
                    lists[k / 2].push((*sig, key));
                }
            }
            let rel = Self::stage_solves(&self.inner, stats, binding, *sig, entry, &keys);

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

    /// Returns the relative tap timings of a cached stage's four transition
    /// solves (in `stage_requests` order), solving only the `(supply,
    /// direction, input slew)` combinations not seen before — in this
    /// process (the in-memory solve map) or any earlier one (the attached
    /// store).
    ///
    /// A pre-scan finds the keys that are neither in the solve map nor in
    /// the store, and those reach the solver as one batch. The bookkeeping
    /// then runs key by key, exactly as a one-key-at-a-time lookup would:
    /// the `MAX_SOLVES_PER_STAGE` clear, the hit, miss and disk-hit counts,
    /// and a store write for every solved key, even one that a later key's
    /// clear drops from the map again. A key that such a clear evicted
    /// between the pre-scan and its turn is looked up in the store and, if
    /// absent, solved on its own.
    fn stage_solves(
        evaluator: &Evaluator,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        sig: StageSig,
        entry: &mut CachedStage,
        keys: &[SolveKey; 4],
    ) -> Vec<Vec<RelTiming>> {
        /// What the pre-scan found for a key.
        enum Found {
            /// In the solve map, or an earlier key of the batch.
            Cached,
            /// In the store, decoded.
            Stored(Vec<RelTiming>),
            /// Nowhere: the key's index among the batch's solves.
            Solve(usize),
        }
        let CachedStage { stage, solves, .. } = entry;
        let solve = |keys: &[SolveKey]| {
            let taps: Vec<usize> = stage.taps.iter().map(|t| t.node).collect();
            let driver = stage.driver.spec();
            evaluator.stage_rel_outputs(&stage.tree, &taps, &driver, stage.driver.is_source(), keys)
        };
        let stored = |key: SolveKey| {
            binding.and_then(|b| {
                let (payload, _tier) = b.store.get(solve_store_key(sig, b.fingerprint, key))?;
                decode_solves(&payload, stage.taps.len())
            })
        };

        let mut misses: Vec<SolveKey> = Vec::new();
        let found: Vec<Found> = keys
            .iter()
            .enumerate()
            .map(|(k, &key)| {
                if solves.contains_key(&key) || keys[..k].contains(&key) {
                    Found::Cached
                } else if let Some(rel) = stored(key) {
                    Found::Stored(rel)
                } else {
                    misses.push(key);
                    Found::Solve(misses.len() - 1)
                }
            })
            .collect();
        let mut solved: Vec<Option<Vec<RelTiming>>> = if misses.is_empty() {
            Vec::new()
        } else {
            solve(&misses).into_iter().map(Some).collect()
        };

        keys.iter()
            .zip(found)
            .map(|(&key, found)| {
                // Bound the per-stage solve map before taking an entry; the
                // extra lookup only runs in the rare at-capacity case.
                if solves.len() >= MAX_SOLVES_PER_STAGE && !solves.contains_key(&key) {
                    stats.evictions += solves.len() as u64;
                    solves.clear();
                }
                let rel = match solves.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        stats.solve_hits += 1;
                        e.into_mut()
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let (rel, from_store) = match found {
                            Found::Stored(rel) => (rel, true),
                            Found::Solve(i) => (solved[i].take().expect("solved once"), false),
                            // Evicted by a clear earlier in this batch.
                            Found::Cached => match stored(key) {
                                Some(rel) => (rel, true),
                                None => (solve(&[key]).remove(0), false),
                            },
                        };
                        if from_store {
                            stats.solve_hits += 1;
                            stats.solve_disk_hits += 1;
                        } else {
                            stats.solve_misses += 1;
                            if let Some(b) = binding {
                                // Cache write failures degrade to a smaller
                                // cache, never to a failed evaluation.
                                let store_key = solve_store_key(sig, b.fingerprint, key);
                                let _ = b.store.put(store_key, &encode_solves(&rel));
                            }
                        }
                        v.insert(rel)
                    }
                };
                rel.clone()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Persistent-store keys and payload codecs
// ---------------------------------------------------------------------------

/// The store key of a lowered stage: its content signature, verbatim.
fn stage_store_key(sig: StageSig) -> StoreKey {
    let (lo, hi) = sig.parts();
    StoreKey::new(crate::store::NS_STAGE, lo, hi)
}

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

/// Encodes a [`LoweredStage`] for the store (little-endian, floats by bit
/// pattern; see [`ByteWriter`]).
fn encode_stage(stage: &LoweredStage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match stage.driver {
        StageDriver::Source(s) => {
            w.put_u8(0);
            w.put_f64(s.output_res);
            w.put_f64(s.slew);
        }
        StageDriver::Buffer(d) => {
            w.put_u8(1);
            w.put_f64(d.output_res);
            w.put_f64(d.output_cap);
            w.put_f64(d.input_cap);
            w.put_f64(d.intrinsic_delay);
            w.put_bool(d.inverting);
        }
    }
    w.put_usize(stage.tree.len());
    for (parent, res, cap) in stage.tree.iter() {
        w.put_usize(parent);
        w.put_f64(res);
        w.put_f64(cap);
    }
    w.put_usize(stage.taps.len());
    for tap in &stage.taps {
        w.put_usize(tap.node);
        match tap.kind {
            LocalTapKind::Sink(id) => {
                w.put_u8(0);
                w.put_usize(id);
            }
            LocalTapKind::Child(k) => {
                w.put_u8(1);
                w.put_usize(k);
            }
        }
    }
    w.finish()
}

/// Decodes a stage payload; `None` (a cold miss, never a panic) on any
/// structural inconsistency.
fn decode_stage(payload: &[u8]) -> Option<LoweredStage> {
    let mut r = ByteReader::new(payload);
    let driver = match r.take_u8()? {
        0 => StageDriver::Source(SourceSpec {
            output_res: r.take_f64()?,
            slew: r.take_f64()?,
        }),
        1 => StageDriver::Buffer(DriverSpec {
            output_res: r.take_f64()?,
            output_cap: r.take_f64()?,
            input_cap: r.take_f64()?,
            intrinsic_delay: r.take_f64()?,
            inverting: r.take_bool()?,
        }),
        _ => return None,
    };
    let node_count = r.take_usize()?;
    let mut tree = RcTree::new();
    for i in 0..node_count {
        let parent = r.take_usize()?;
        let res = r.take_f64()?;
        let cap = r.take_f64()?;
        if i == 0 {
            if parent != usize::MAX {
                return None;
            }
            tree.add_root(cap);
        } else {
            if parent >= i {
                return None;
            }
            tree.add_node(parent, res, cap);
        }
    }
    let tap_count = r.take_usize()?;
    let mut taps = Vec::new();
    for _ in 0..tap_count {
        let node = r.take_usize()?;
        if node >= node_count {
            return None;
        }
        let kind = match r.take_u8()? {
            0 => LocalTapKind::Sink(r.take_usize()?),
            1 => LocalTapKind::Child(r.take_usize()?),
            _ => return None,
        };
        taps.push(LocalTap { node, kind });
    }
    r.is_done().then_some(LoweredStage { driver, tree, taps })
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
            tree: t0.clone(),
            taps: vec![Tap {
                node: trunk,
                kind: TapKind::Stage(1),
            }],
        };
        let stage1 = Stage {
            driver: StageDriver::Buffer(d),
            tree: t1.clone(),
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

        let mut s0 = SigBuilder::new();
        s0.write_tag(0);
        let mut s1 = SigBuilder::new();
        s1.write_tag(1);
        let slots = vec![
            StageSlot {
                sig: s0.finish(),
                children: vec![1],
                fresh: Some(LoweredStage {
                    driver: StageDriver::Source(SourceSpec::ispd09()),
                    tree: t0,
                    taps: vec![LocalTap {
                        node: trunk,
                        kind: LocalTapKind::Child(0),
                    }],
                }),
            },
            StageSlot {
                sig: s1.finish(),
                children: vec![],
                fresh: Some(LoweredStage {
                    driver: StageDriver::Buffer(d),
                    tree: t1,
                    taps: vec![
                        LocalTap {
                            node: a,
                            kind: LocalTapKind::Sink(0),
                        },
                        LocalTap {
                            node: b,
                            kind: LocalTapKind::Sink(1),
                        },
                    ],
                }),
            },
        ];
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
        let report2 = inc.evaluate_slots(
            slots
                .iter()
                .map(|s| StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                })
                .collect(),
        );
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
        let _ = inc.evaluate_slots(
            slots
                .iter()
                .map(|s| StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                })
                .collect(),
        );
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
        // Keep the downstream stage's content fixed while the upstream
        // stage changes every round, so a new input slew reaches the fixed
        // stage each time. Past MAX_SOLVES_PER_STAGE entries its solve map
        // is cleared; results must stay bit-identical to full evaluation
        // throughout.
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(tech.clone());
        let full = Evaluator::new(tech);
        for round in 0..(MAX_SOLVES_PER_STAGE + 8) {
            let extra_res = round as f64;
            let mut n = netlist.clone();
            let mut t0 = RcTree::new();
            let r0 = t0.add_root(1.0);
            let input_cap = n.stages[1].driver.spec().input_cap;
            let trunk = t0.add_node(r0, 120.0 + extra_res, 60.0 + input_cap);
            n.stages[0].tree = t0.clone();
            n.stages[0].taps[0].node = trunk;

            let mut sig = SigBuilder::new();
            sig.write_f64(extra_res);
            let root_slot = StageSlot {
                sig: sig.finish(),
                children: vec![1],
                fresh: Some(LoweredStage {
                    driver: n.stages[0].driver,
                    tree: t0,
                    taps: vec![LocalTap {
                        node: trunk,
                        kind: LocalTapKind::Child(0),
                    }],
                }),
            };
            let fixed_slot = StageSlot {
                sig: slots[1].sig,
                children: vec![],
                fresh: if inc.is_cached(slots[1].sig) {
                    None
                } else {
                    slots[1].fresh.clone()
                },
            };
            let fast = inc.evaluate_slots(vec![root_slot, fixed_slot]);
            assert_eq!(fast, full.evaluate(&n), "round {round}");
        }
    }

    #[test]
    fn every_solved_key_reaches_the_store_when_the_stage_clear_fires_mid_batch() {
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let buffer_sig = slots[1].sig;
        // The buffer stage's four keys, from an evaluator with room to spare.
        let probe = IncrementalEvaluator::new(tech.clone());
        let _ = probe.evaluate_slots(slots.clone());
        let keys: Vec<SolveKey> = probe.cache.borrow()[&buffer_sig]
            .solves
            .keys()
            .copied()
            .collect();
        assert_eq!(keys.len(), 4);

        // Install both stages, then fill the buffer stage's solve map to one
        // short of the bound with keys no walk asks for: its first key of
        // the next batch fills the map, and the second key's clear drops it.
        let inc = IncrementalEvaluator::new(tech.clone());
        let _ = inc.evaluate_slots(slots.clone());
        {
            let mut cache = inc.cache.borrow_mut();
            let solves = &mut cache.get_mut(&buffer_sig).expect("cached").solves;
            solves.clear();
            for i in 0..MAX_SOLVES_PER_STAGE - 1 {
                let filler = SolveKey {
                    vdd: 0,
                    rising: true,
                    input_slew: i as u64,
                };
                solves.insert(filler, Vec::new());
            }
        }
        let dir = temp_store_dir("clear");
        let store = Arc::new(CacheStore::open(&dir).expect("open"));
        inc.attach_store(store.clone());
        inc.reset_stats();
        let cached_slots: Vec<StageSlot> = slots
            .iter()
            .map(|s| StageSlot {
                sig: s.sig,
                children: s.children.clone(),
                fresh: None,
            })
            .collect();
        let report = inc.evaluate_slots(cached_slots);
        assert_eq!(report, Evaluator::new(tech).evaluate(&netlist));
        let stats = inc.stats();
        assert_eq!(stats.solve_misses, 4, "the buffer stage's keys are solved");
        assert_eq!(
            stats.evictions, MAX_SOLVES_PER_STAGE as u64,
            "the clear fires once, after the batch's first key filled the map"
        );
        assert_eq!(inc.cache.borrow()[&buffer_sig].solves.len(), 3);

        let fingerprint = context_fingerprint(inc.evaluator());
        for key in &keys {
            assert!(
                store
                    .get(solve_store_key(buffer_sig, fingerprint, *key))
                    .is_some(),
                "solved key {key:?} is missing from the store"
            );
        }
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
    fn warm_store_reloads_stages_and_solves_bit_identically() {
        let dir = temp_store_dir("warm");
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);

        // Cold run: populate the store.
        {
            let inc = IncrementalEvaluator::new(tech.clone());
            inc.attach_store(Arc::new(CacheStore::open(&dir).expect("open")));
            assert_eq!(inc.evaluate_slots(slots.clone()), full);
            let stats = inc.stats();
            assert_eq!(stats.stage_disk_hits, 0);
            assert_eq!(stats.solve_disk_hits, 0);
        }

        // Warm run in a "new process": the probe finds both stages on disk,
        // so no slot needs a fresh lowering, every solve comes from disk,
        // and the report is byte-identical.
        let inc = IncrementalEvaluator::new(tech);
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("reopen")));
        let warm_slots: Vec<StageSlot> = slots
            .iter()
            .map(|s| {
                assert!(inc.is_cached(s.sig), "stage should load from the store");
                StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                }
            })
            .collect();
        assert_eq!(inc.evaluate_slots(warm_slots), full);
        let stats = inc.stats();
        assert_eq!(stats.stage_disk_hits, 2);
        assert_eq!(stats.stage_misses, 0);
        assert_eq!(stats.solve_misses, 0);
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
    fn corrupt_stage_payloads_degrade_to_cold_misses() {
        let dir = temp_store_dir("corrupt");
        let store = CacheStore::open(&dir).expect("open");
        let (_netlist, slots) = two_sink_network();
        // A syntactically valid record whose payload is not a stage.
        store
            .put(stage_store_key(slots[0].sig), b"not a stage")
            .expect("put");
        drop(store);
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("reopen")));
        assert!(!inc.is_cached(slots[0].sig), "garbage must read as a miss");
        assert_eq!(inc.stats().stage_disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_and_solve_codecs_round_trip() {
        let (_netlist, slots) = two_sink_network();
        for slot in &slots {
            let stage = slot.fresh.as_ref().expect("fresh");
            let decoded = decode_stage(&encode_stage(stage)).expect("round trip");
            assert_eq!(decoded.driver, stage.driver);
            assert_eq!(decoded.tree, stage.tree);
            assert_eq!(decoded.taps, stage.taps);
        }
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
