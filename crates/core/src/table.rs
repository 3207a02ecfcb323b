//! Tabled subtype proving: a generation-invalidated proof memo table.
//!
//! The deterministic prover of §3 is already polynomial per query, but the
//! same judgements recur constantly in practice: checking a program asks
//! `α ⪰_C τ` once per deferred commitment of every clause, the Theorem 6
//! auditor re-checks every resolvent of a run, and benchmark workloads
//! repeat whole goal families. [`ProofTable`] memoizes *conclusive* verdicts
//! ([`Proof::Proved`] / [`Proof::Refuted`]) so each distinct judgement is
//! derived once; [`Proof::Unknown`] is a budget artifact, not a judgement,
//! and is never cached.
//!
//! # Canonical keys
//!
//! Entries are keyed on the goal conjunction *canonically renamed*: variables
//! are mapped, in first-occurrence order, onto `_0, _1, …`, and the rigid
//! set is reduced to the sorted canonical images of the rigid variables that
//! actually occur in the goals. Since the arena refactor the renamed goals
//! are not materialized as `Term` trees at all: the key is a flat `u32` code
//! stream built in one pre-order walk ([`arena::encode_canonical`]), with
//! the same equality as the old renamed-tree representation.
//! Alpha-variant queries — `list(A) ⪰ nelist(B)` and `list(X) ⪰ nelist(Y)` —
//! therefore share one entry, while structurally different goals can never
//! collide. Rigid variables not occurring in the goals are dropped: the
//! search can only ever consult rigidity of variables it reaches, and those
//! are goal variables or fresh ones past the watermark.
//!
//! Cached `Proved` answers are stored in the same canonical variable space.
//! On a hit the answer is translated back through the inverse renaming; fresh
//! variables the original derivation allocated (at or past the prover's
//! effective watermark) are re-based onto the hitting call's own fresh range,
//! so a translated answer is exactly what a live run would have produced, up
//! to the numbering of prover-invented variables. On a *miss* the live
//! proof is returned untouched, so first derivations are byte-identical with
//! and without tabling.
//!
//! # Generation invalidation
//!
//! A verdict is only meaningful relative to the constraint theory `H_C` it
//! was derived under. Every [`ConstraintSet`](crate::ConstraintSet) carries a
//! process-unique generation stamp refreshed on each mutation (see
//! [`crate::constraint::next_generation`]); every lookup and insert names
//! the stamp of the theory it speaks for, and the table wholesale-clears
//! itself whenever that differs from the stamp its entries were derived
//! under. Stamps are unique across sets, so a table can be shared between
//! worlds without ever serving a stale verdict. The *signature* is assumed
//! fixed once proving starts — declaring new symbols mid-stream without
//! touching the constraint set is not detected (and nothing in this crate
//! does so).
//!
//! # Bounded size
//!
//! The table holds at most [`ProofTable::capacity`] entries; inserting past
//! that evicts the oldest entry (FIFO). Hit/miss/insert/evict counts are
//! available via [`ProofTable::stats`].
//!
//! # Sharing across threads
//!
//! There is one table type for serial and parallel callers alike. Its
//! entries sit behind one internal `Mutex` and its API takes `&self`, so
//! the checker, the matcher, the auditor, the clause-parallel workers of
//! [`crate::ParallelChecker`] and `slp serve` all share one store. The lock
//! is held for a single map operation, never across a derivation: two
//! workers missing on the same key both derive it, and the second insert
//! updates the entry in place with an equal verdict (the prover is
//! deterministic in canonical space). A lookup or insert that finds the
//! lock taken counts [`Counter::TableReadRetries`] or
//! [`Counter::ShardContention`] and then waits for it — nothing is ever
//! skipped, so the deterministic counters do not depend on scheduling.
//! A panic while the lock is held poisons it; the next access wipes the
//! entries (always sound for a cache), counts one
//! [`Counter::TableInvalidations`] and traces `shard.poison_recovered`.
//!
//! [`TabledProver`] is the one front end: over `Some(&table)` it memoizes,
//! over `None` it derives every judgement live. Either way the ground
//! closure tier and all accounting run through the same code.
//!
//! # Accounting
//!
//! The counters live in a shared [`MetricsRegistry`] (see [`crate::obs`]):
//! every table is constructed over a registry (its own by default, a
//! caller-supplied `Arc` for CLI-wide aggregation), and
//! [`ProofTable::stats`] is a lock-free *view* over the registry's counters
//! rather than a separately maintained struct. When tracing is enabled the
//! table also emits `table.hit` / `table.miss` / `table.evict` /
//! `table.invalidate` span events keyed by the canonical fingerprint.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use lp_term::{Signature, Subst, Term, Var, VarGen};

use crate::arena;
use crate::closure::ClosureVerdict;
use crate::constraint::{CheckedConstraints, SubtypeConstraint};
use crate::obs::{Counter, MetricsRegistry, Timer, TraceEvent};
use crate::prover::{Proof, Prover, ProverConfig};
use crate::witness::{self, Step, Witness, Witnessed};

/// Default bound on the number of cached verdicts.
pub const DEFAULT_TABLE_CAPACITY: usize = 4096;

/// A canonically-renamed goal conjunction plus its rigid-variable footprint.
///
/// Two queries produce the same key iff they are alpha-variants with the same
/// rigidity pattern — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TableKey {
    /// The goal conjunction as one canonical flat code stream: for each goal,
    /// `sup` then `sub`, encoded by [`arena::encode_canonical`] with
    /// variables renamed to `_0, _1, …` in first-occurrence order. Two
    /// queries produce equal codes iff their renamed goal lists are equal,
    /// and hashing/comparing is a flat word scan instead of a tree walk.
    code: Vec<u32>,
    /// Sorted canonical images of the rigid variables occurring in the goals.
    rigid: Vec<Var>,
}

impl TableKey {
    /// A compact, human-scannable rendering for trace logs: symbols print
    /// as `s<index>` (the signature is not in scope here), canonical
    /// variables as `_<n>`, goals as `sup>=sub` joined with `&`, followed
    /// by the rigid set — e.g. `s3(_0)>=s5(_1)|r:_1`.
    pub(crate) fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        fn term(out: &mut String, t: &Term) {
            match t {
                Term::Var(v) => {
                    let _ = write!(out, "_{}", v.0);
                }
                Term::App(sym, args) => {
                    let _ = write!(out, "s{}", sym.index());
                    if !args.is_empty() {
                        out.push('(');
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            term(out, a);
                        }
                        out.push(')');
                    }
                }
            }
        }
        let decoded = arena::decode_terms(&self.code);
        let mut out = String::new();
        for (i, pair) in decoded.chunks_exact(2).enumerate() {
            if i > 0 {
                out.push('&');
            }
            term(&mut out, &pair[0]);
            out.push_str(">=");
            term(&mut out, &pair[1]);
        }
        if !self.rigid.is_empty() {
            out.push_str("|r:");
            for (i, v) in self.rigid.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "_{}", v.0);
            }
        }
        out
    }
}

/// A cached conclusive verdict, with any answer held in canonical space.
///
/// A `Proved` entry interns the derivation chain alongside the answer:
/// [`Step`]s are variable-free, so the same `Arc`'d chain replays both in
/// canonical space (for [`ProofTable::validate_witnesses`]) and, shared
/// into a [`Witness`], in the variable space of every alpha-variant hit.
/// `Refuted` stays evidence-free — refutation cores are computed on demand
/// by re-proving sub-conjunctions under the table, not cached.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CachedVerdict {
    /// Derivable; the answer substitution over canonical variables, plus
    /// the interned derivation chain.
    Proved(Subst, Arc<Vec<Step>>),
    /// Conclusively not derivable.
    Refuted,
}

/// Hit/miss/insert/evict counters for a [`ProofTable`].
///
/// A read-only *view*: the live tallies are atomic counters in the table's
/// [`MetricsRegistry`], and [`ProofTable::stats`] snapshots them into this
/// struct, so reading it takes no lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to the live prover.
    pub misses: u64,
    /// Verdicts stored (Unknown verdicts are never stored).
    pub inserts: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Wholesale clears triggered by a generation mismatch.
    pub invalidations: u64,
}

impl TableStats {
    /// Fraction of lookups answered from the table, in `[0, 1]` (0 when no
    /// lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The entries of a [`ProofTable`], guarded by its lock.
#[derive(Debug, Clone, Default)]
struct Entries {
    map: HashMap<TableKey, CachedVerdict>,
    /// Insertion order of the keys in `map`, oldest first (FIFO).
    order: VecDeque<TableKey>,
    /// Generation stamp the current entries were derived under; 0 = unset.
    generation: u64,
}

impl Entries {
    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A bounded memo table of subtype verdicts, invalidated by constraint-set
/// generation and shareable across threads. See the module docs for the
/// caching and locking contract.
///
/// The table itself is passive storage; [`TabledProver`] drives it. Share
/// one table per world across the checker, the matcher, the auditor and
/// any parallel workers to maximize reuse.
#[derive(Debug)]
pub struct ProofTable {
    entries: Mutex<Entries>,
    capacity: usize,
    /// Shared metrics registry the table reports into.
    obs: Arc<MetricsRegistry>,
}

/// The name of the concurrent table when it was a separate, lock-free
/// store. The two are now one type; the alias keeps code written against
/// the old name compiling.
pub type ShardedProofTable = ProofTable;

impl Clone for ProofTable {
    /// Clones the cached entries and the *values* of the counters: the
    /// clone gets its own fresh registry seeded from a snapshot, so the two
    /// tables account independently from the moment of the clone.
    fn clone(&self) -> Self {
        let obs = MetricsRegistry::shared();
        obs.seed(&self.obs.snapshot());
        ProofTable {
            entries: Mutex::new(Entries::clone(&self.lock(None))),
            capacity: self.capacity,
            obs,
        }
    }
}

impl Default for ProofTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProofTable {
    /// An empty table with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TABLE_CAPACITY)
    }

    /// An empty table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_metrics(capacity, MetricsRegistry::shared())
    }

    /// An empty table with the default capacity, reporting into `obs`.
    pub fn with_metrics(obs: Arc<MetricsRegistry>) -> Self {
        Self::with_capacity_and_metrics(DEFAULT_TABLE_CAPACITY, obs)
    }

    /// An empty table holding at most `capacity` entries, reporting into
    /// `obs` — the constructor the CLI uses to aggregate every table of an
    /// invocation into one registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity_and_metrics(capacity: usize, obs: Arc<MetricsRegistry>) -> Self {
        assert!(
            capacity > 0,
            "a proof table needs room for at least one entry"
        );
        ProofTable {
            entries: Mutex::new(Entries::default()),
            capacity,
            obs,
        }
    }

    /// The metrics registry this table reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.lock(None).map.len()
    }

    /// Whether the table holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The generation stamp the current entries were derived under (0 until
    /// the first use).
    pub fn generation(&self) -> u64 {
        self.lock(None).generation
    }

    /// The lifetime counters (never reset by clears or invalidations) — a
    /// lock-free view over the table's [`MetricsRegistry`]. Concurrent
    /// workers may land between the individual counter loads; once they
    /// have joined it is exact.
    pub fn stats(&self) -> TableStats {
        TableStats {
            hits: self.obs.get(Counter::TableHits),
            misses: self.obs.get(Counter::TableMisses),
            inserts: self.obs.get(Counter::TableInserts),
            evictions: self.obs.get(Counter::TableEvictions),
            invalidations: self.obs.get(Counter::TableInvalidations),
        }
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&self) {
        self.lock(None).clear();
    }

    /// Aligns the table with the theory stamped `generation`, clearing every
    /// entry if it was populated under a different one.
    pub fn ensure_generation(&self, generation: u64) {
        self.align(&mut self.lock(None), generation);
    }

    /// Takes the table's lock. When another thread holds it, `busy` (if
    /// any) is counted before waiting. A lock poisoned by a panic is
    /// recovered here: the entries are wiped, which is always sound for a
    /// cache, and the recovery is counted and traced.
    fn lock(&self, busy: Option<Counter>) -> MutexGuard<'_, Entries> {
        let acquired = match self.entries.try_lock() {
            Ok(entries) => Ok(entries),
            Err(TryLockError::Poisoned(poisoned)) => Err(poisoned),
            Err(TryLockError::WouldBlock) => {
                if let Some(counter) = busy {
                    self.obs.incr(counter);
                    if counter == Counter::ShardContention {
                        self.obs.trace(&TraceEvent::ShardContention { shard: 0 });
                    }
                }
                self.entries.lock()
            }
        };
        acquired.unwrap_or_else(|poisoned| {
            let mut entries = poisoned.into_inner();
            self.entries.clear_poison();
            entries.clear();
            self.obs.incr(Counter::TableInvalidations);
            self.obs
                .trace(&TraceEvent::ShardPoisonRecovered { shard: 0 });
            entries
        })
    }

    /// Clears `entries` if they were derived under another generation
    /// (counting the invalidation when anything was dropped) and stamps
    /// them with `generation`.
    fn align(&self, entries: &mut Entries, generation: u64) {
        if entries.generation != generation {
            if !entries.map.is_empty() {
                self.obs.incr(Counter::TableInvalidations);
                self.obs.trace(&TraceEvent::TableInvalidate { generation });
            }
            entries.clear();
            entries.generation = generation;
        }
    }

    /// Fault-injection hook for `slp serve`: panics with `message` while
    /// holding the table's lock, so the injected fault really poisons it
    /// and the next access has to recover. An already-poisoned lock is
    /// taken as it is, so back-to-back faults leave one pending recovery.
    pub(crate) fn panic_holding_lock(&self, message: &str) -> ! {
        let _held = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        panic!("{message}");
    }

    /// Moves the table to a new constraint-theory `generation`, keeping
    /// every entry that provably survives the theory change instead of
    /// clearing wholesale (the [`ProofTable::ensure_generation`] behaviour).
    ///
    /// The caller describes the change: `constraint_unchanged(i)` must
    /// return `true` iff the constraint at declaration index `i` is
    /// byte-identical in the old and new theories, and `keep_refuted`
    /// must only be `true` when the new theory adds *nothing* (identical
    /// constraint lists). Soundness:
    ///
    /// * a `Proved` entry's chain names exactly the constraints its
    ///   derivation used ([`Step::Constraint`]); if all of them are
    ///   unchanged the chain replays verbatim under the new theory, and
    ///   H_C derivability is monotone under constraint *addition*, so the
    ///   verdict stands;
    /// * a `Refuted` entry asserts *no* derivation exists — any added or
    ///   changed constraint could create one, so refutations only survive
    ///   a no-op change.
    ///
    /// Precondition (checked by the caller, e.g. `slp serve`'s delta
    /// handling): the old signature's symbol numbering must be a prefix of
    /// the new one, so the `Sym`s baked into cached keys and answers keep
    /// denoting the same symbols. When that fails, fall back to
    /// [`ProofTable::ensure_generation`].
    ///
    /// Returns the number of retained entries, which is also added to
    /// [`Counter::IncrementalReuse`]. A same-generation call is a no-op
    /// returning 0 (nothing was at risk, nothing was "reused").
    pub fn rescope(
        &self,
        generation: u64,
        constraint_unchanged: &dyn Fn(usize) -> bool,
        keep_refuted: bool,
    ) -> u64 {
        let mut guard = self.lock(None);
        let Entries {
            map,
            order,
            generation: current,
        } = &mut *guard;
        if *current == generation {
            return 0;
        }
        let before = map.len();
        order.retain(|key| {
            let keep = match map.get(key) {
                Some(CachedVerdict::Proved(_, steps)) => steps.iter().all(|s| match s {
                    Step::Constraint(i) => constraint_unchanged(*i),
                    Step::Refl | Step::Decompose => true,
                }),
                Some(CachedVerdict::Refuted) => keep_refuted,
                None => false,
            };
            if !keep {
                map.remove(key);
            }
            keep
        });
        debug_assert_eq!(
            order.len(),
            map.len(),
            "order queue and entry map out of sync after rescope"
        );
        *current = generation;
        let kept = map.len();
        if kept != before {
            self.obs.incr(Counter::TableInvalidations);
            self.obs.trace(&TraceEvent::TableInvalidate { generation });
        }
        self.obs.add(Counter::IncrementalReuse, kept as u64);
        kept as u64
    }

    /// Looks up a key under the constraint theory stamped `generation`,
    /// counting a hit or a miss.
    pub(crate) fn lookup(&self, generation: u64, key: &TableKey) -> Option<CachedVerdict> {
        let found = {
            let mut entries = self.lock(Some(Counter::TableReadRetries));
            self.align(&mut entries, generation);
            entries.map.get(key).cloned()
        };
        let counter = if found.is_some() {
            Counter::TableHits
        } else {
            Counter::TableMisses
        };
        self.obs.incr(counter);
        if self.obs.tracing() {
            let key = &key.fingerprint();
            self.obs.trace(&if found.is_some() {
                TraceEvent::TableHit { key }
            } else {
                TraceEvent::TableMiss { key }
            });
        }
        found
    }

    /// Stores a verdict derived under the theory stamped `generation`,
    /// evicting the oldest entry when at capacity.
    ///
    /// Re-inserting a key that is already present *updates the verdict in
    /// place* — without enqueuing a second FIFO slot — and moves the key to
    /// the queue tail: a just-re-proved key is the hottest entry in the
    /// table, so leaving it at its original slot would evict it as if it
    /// were cold. The membership test goes through `map` (O(1)), which
    /// keeps `order` duplicate-free: pushing a second copy of a live key
    /// would make the queue grow past the entry count, charge `evictions`
    /// for queue slots whose key was already gone, and — because each insert
    /// pops at most one slot — let the table overshoot its capacity while
    /// evicting live entries early.
    pub(crate) fn insert(&self, generation: u64, key: TableKey, verdict: CachedVerdict) {
        let mut guard = self.lock(Some(Counter::ShardContention));
        self.align(&mut guard, generation);
        let entries = &mut *guard;
        if let Some(slot) = entries.map.get_mut(&key) {
            *slot = verdict;
            if let Some(pos) = entries.order.iter().position(|k| k == &key) {
                let hot = entries.order.remove(pos).expect("position is in range");
                entries.order.push_back(hot);
            }
            return;
        }
        if entries.map.len() >= self.capacity {
            if let Some(oldest) = entries.order.pop_front() {
                let evicted = entries.map.remove(&oldest);
                debug_assert!(evicted.is_some(), "order queue held a dead key");
                self.obs.incr(Counter::TableEvictions);
                if self.obs.tracing() {
                    self.obs.trace(&TraceEvent::TableEvict {
                        key: &oldest.fingerprint(),
                    });
                }
            }
        }
        entries.order.push_back(key.clone());
        entries.map.insert(key, verdict);
        self.obs.incr(Counter::TableInserts);
        debug_assert_eq!(
            entries.order.len(),
            entries.map.len(),
            "order queue and entry map out of sync"
        );
    }

    /// Audits the table: replays every cached `Proved` entry's chain in
    /// canonical space through [`witness::validate_in`] — no prover is
    /// consulted. Returns `(validated, invalid)` and tallies the same into
    /// `witness_validated` / `witness_invalid`. `Refuted` entries carry no
    /// chain and are skipped. Run it after any parallel workers have
    /// joined for an exact sweep.
    pub fn validate_witnesses(
        &self,
        sig: &Signature,
        constraints: &[SubtypeConstraint],
    ) -> (u64, u64) {
        let mut validated = 0u64;
        let mut invalid = 0u64;
        for (key, verdict) in &self.lock(None).map {
            if let CachedVerdict::Proved(answer, steps) = verdict {
                // Witness replay is representation-independent: the goals
                // decode back out of the flat key code, and the chain indexes
                // constraints, not pointers.
                let goals: Vec<(Term, Term)> = arena::decode_terms(&key.code)
                    .chunks_exact(2)
                    .map(|p| (p[0].clone(), p[1].clone()))
                    .collect();
                let w = Witness {
                    goals,
                    answer: answer.clone(),
                    steps: steps.clone(),
                };
                if witness::validate_in(sig, constraints, &w).is_ok() {
                    validated += 1;
                } else {
                    invalid += 1;
                }
            }
        }
        self.obs.add(Counter::WitnessValidated, validated);
        self.obs.add(Counter::WitnessInvalid, invalid);
        (validated, invalid)
    }
}

/// The stable verdict name used in `subtype.end` trace events.
fn verdict_name(proof: &Proof) -> &'static str {
    match proof {
        Proof::Proved(_) => "proved",
        Proof::Refuted => "refuted",
        Proof::Unknown => "unknown",
    }
}

/// The canonical renaming of one query, with everything needed to translate
/// answers in both directions.
pub(crate) struct Canonical {
    pub(crate) key: TableKey,
    /// Original variable → canonical variable, for every goal variable.
    forward: HashMap<Var, Var>,
    /// Number of distinct goal variables: canonical `_0 .. _key_vars` are
    /// goal variables, canonical variables at or past `key_vars` are fresh.
    key_vars: u32,
    /// First fresh variable the live prover allocates for this call — the
    /// effective watermark [`Prover::subtype_all_rigid`] computes from
    /// `var_watermark`, the goal variables and the rigid set.
    base: u32,
}

impl Canonical {
    pub(crate) fn of(goals: &[(Term, Term)], rigid: &BTreeSet<Var>, var_watermark: u32) -> Self {
        let mut gen = VarGen::new();
        let mut forward = HashMap::new();
        let mut code = Vec::new();
        // One pre-order walk per goal side builds the flat key code directly
        // — no renamed `Term` trees are ever allocated. The canonical-index
        // assignment order (first occurrence across sup-then-sub, goal by
        // goal) is identical to what `rename_term` with a shared map did.
        // The same pass reserves goal variables into the live prover's
        // fresh-variable base, which starts at `var_watermark`.
        let mut base_gen = VarGen::starting_at(var_watermark);
        for (sup, sub) in goals {
            arena::encode_canonical(&mut code, sup, &mut forward, &mut gen);
            arena::encode_canonical(&mut code, sub, &mut forward, &mut gen);
            arena::visit_vars(sup, &mut |v| base_gen.reserve(v));
            arena::visit_vars(sub, &mut |v| base_gen.reserve(v));
        }
        let mut canon_rigid: Vec<Var> = rigid
            .iter()
            .filter_map(|v| forward.get(v).copied())
            .collect();
        canon_rigid.sort_unstable();
        for &v in rigid {
            base_gen.reserve(v);
        }
        Canonical {
            key: TableKey {
                code,
                rigid: canon_rigid,
            },
            forward,
            key_vars: gen.watermark(),
            base: base_gen.watermark(),
        }
    }

    /// Original → canonical, covering prover-fresh variables by offset.
    /// `None` for a variable that is neither a goal variable nor fresh
    /// (cannot arise from a well-behaved search; callers skip caching then).
    fn encode_var(&self, v: Var) -> Option<Var> {
        if let Some(&c) = self.forward.get(&v) {
            Some(c)
        } else if v.0 >= self.base {
            Some(Var(self.key_vars + (v.0 - self.base)))
        } else {
            None
        }
    }

    /// Translates a live answer into canonical space for storage.
    pub(crate) fn encode_answer(&self, answer: &Subst) -> Option<Subst> {
        let mut bindings = Vec::new();
        for (v, t) in answer.iter() {
            let cv = self.encode_var(v)?;
            let mut complete = true;
            let ct = t.map_vars(&mut |w| match self.encode_var(w) {
                Some(cw) => Term::Var(cw),
                None => {
                    complete = false;
                    Term::Var(w)
                }
            });
            if !complete {
                return None;
            }
            bindings.push((cv, ct));
        }
        Some(Subst::from_bindings(bindings))
    }

    /// Canonical → this call's variables, re-basing canonical-fresh
    /// variables onto this call's fresh range.
    pub(crate) fn decode_answer(&self, canonical: &Subst) -> Subst {
        let inverse: HashMap<Var, Var> = self.forward.iter().map(|(&orig, &c)| (c, orig)).collect();
        let decode = |c: Var| -> Var {
            match inverse.get(&c) {
                Some(&orig) => orig,
                None => Var(self.base + (c.0 - self.key_vars)),
            }
        };
        Subst::from_bindings(
            canonical
                .iter()
                .map(|(cv, ct)| (decode(cv), ct.map_vars(&mut |w| Term::Var(decode(w))))),
        )
    }
}

/// The proving front end of the table, mirroring the untabled [`Prover`]'s
/// API.
///
/// Over `Some(&table)` every conclusive verdict is recorded in (and, for
/// repeats, served from) the shared [`ProofTable`], under the constraint
/// set's generation, so mutating the world — building a new
/// [`ConstraintSet`](crate::ConstraintSet) — transparently invalidates it.
/// Over `None` every judgement is derived live. Both go through the same
/// ground-closure tier and the same accounting.
///
/// The table's lock is confined to lookup and insert; the live search
/// itself never touches the table, so the front end is re-entrancy safe
/// and can be used from many threads over one table.
#[derive(Debug, Clone, Copy)]
pub struct TabledProver<'a> {
    prover: Prover<'a>,
    cs: &'a CheckedConstraints,
    table: Option<&'a ProofTable>,
    /// Where an untabled front end reports (see [`Self::with_obs`]).
    obs: Option<&'a MetricsRegistry>,
}

/// An open `subtype_prove` span: when it started and, when tracing, the
/// canonical fingerprint its end event repeats.
struct Span {
    started: Instant,
    fingerprint: Option<String>,
}

impl<'a> TabledProver<'a> {
    /// Creates a front end with default limits over an optional shared
    /// table.
    pub fn new(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        table: Option<&'a ProofTable>,
    ) -> Self {
        Self::with_config(sig, cs, ProverConfig::default(), table)
    }

    /// Creates a front end with explicit limits.
    pub fn with_config(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        config: ProverConfig,
        table: Option<&'a ProofTable>,
    ) -> Self {
        TabledProver {
            prover: Prover::with_config(sig, cs, config),
            cs,
            table,
            obs: None,
        }
    }

    /// Attaches the registry an *untabled* front end reports into (builder
    /// style). With a table it is not consulted: a table always accounts
    /// into its own registry, so wiring the table to an invocation-wide
    /// registry aggregates everything there.
    pub fn with_obs(mut self, obs: Option<&'a MetricsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying (untabled) prover.
    pub fn prover(&self) -> Prover<'a> {
        self.prover
    }

    /// The shared table, if any.
    pub fn table(&self) -> Option<&'a ProofTable> {
        self.table
    }

    /// The registry every counter, timer and span of this front end lands
    /// in: the table's when there is one, else the attached one.
    fn obs(&self) -> Option<&'a MetricsRegistry> {
        match self.table {
            Some(table) => Some(table.metrics().as_ref()),
            None => self.obs,
        }
    }

    /// Tabled [`Prover::subtype`].
    pub fn subtype(&self, sup: &Term, sub: &Term) -> Proof {
        self.subtype_all(&[(sup.clone(), sub.clone())])
    }

    /// Tabled [`Prover::subtype_all`].
    pub fn subtype_all(&self, goals: &[(Term, Term)]) -> Proof {
        self.subtype_all_rigid(goals, &BTreeSet::new(), 0)
    }

    /// Tabled [`Prover::member`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` is not ground, like the untabled version.
    pub fn member(&self, ty: &Term, t: &Term) -> Proof {
        debug_assert!(t.is_ground(), "membership is defined on ground terms");
        self.subtype(ty, t)
    }

    /// Tabled [`Prover::subtype_all_rigid`]. Conclusive verdicts for the
    /// canonical form of `goals` are served from / recorded in the table;
    /// [`Proof::Unknown`] always falls through and is never recorded.
    pub fn subtype_all_rigid(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Proof {
        if let Some(proof) = self.closure_verdict(goals, true) {
            return proof;
        }
        let (span, canon) = self.open(goals, rigid, var_watermark);
        let (proof, _) = self.lookup_or_derive(canon, goals, rigid, var_watermark);
        self.close(span, || verdict_name(&proof));
        proof
    }

    /// [`Self::subtype_all_rigid`] with evidence attached: `Proved` carries
    /// a replayable [`Witness`] whose chain is interned with the table entry
    /// (hits share it), `Refuted` a 1-minimal failing core computed by
    /// greedy constraint-dropping re-proving through the same front end —
    /// under a table the shrinking repeats are memoized, so it stays cheap.
    ///
    /// Instrumentation is identical to the plain method (`subtype_goals`,
    /// the `subtype_prove` timer, span events), plus `witness_emitted` /
    /// `refuted_core_size` for the evidence itself. The ground closure is
    /// not consulted: it decides verdicts, not derivation chains.
    pub fn subtype_all_rigid_witnessed(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Witnessed {
        let (span, canon) = self.open(goals, rigid, var_watermark);
        let out = match self.lookup_or_derive(canon, goals, rigid, var_watermark) {
            (Proof::Proved(answer), steps) => {
                if let Some(o) = self.obs() {
                    o.incr(Counter::WitnessEmitted);
                }
                Witnessed::Proved(Witness {
                    goals: goals.to_vec(),
                    answer,
                    steps,
                })
            }
            (Proof::Refuted, _) => Witnessed::Refuted {
                core: self.shrink_refuted(goals, rigid, var_watermark),
            },
            (Proof::Unknown, _) => Witnessed::Unknown,
        };
        self.close(span, || verdict_name(&out.proof()));
        out
    }

    /// The ground-closure tier: a fully-ground conjunction the precomputed
    /// closure decides never reaches the canonical-key/table layer at all —
    /// no renaming, no key, no lock. The verdict is exactly what the prover
    /// would return (ground searches bind nothing, so a proved ground
    /// conjunction's answer is the empty substitution). `counted` ticks
    /// `subtype_goals` and `closure_hits` / `closure_misses`.
    fn closure_verdict(&self, goals: &[(Term, Term)], counted: bool) -> Option<Proof> {
        let obs = self.obs().filter(|_| counted);
        let proof = match self.cs.ground_closure().decide_goals(goals) {
            ClosureVerdict::Proved => Proof::Proved(Subst::new()),
            ClosureVerdict::Refuted => Proof::Refuted,
            ClosureVerdict::Miss => {
                if let Some(o) = obs {
                    o.incr(Counter::ClosureMisses);
                }
                return None;
            }
            ClosureVerdict::NotGround => return None,
        };
        if let Some(o) = obs {
            o.incr(Counter::SubtypeGoals);
            o.incr(Counter::ClosureHits);
        }
        Some(proof)
    }

    /// Opens the instrumented span of one query: counts the goal, starts
    /// the `subtype_prove` timer and traces `subtype.start`. Builds the
    /// query's canonical key when there is a table to look it up in.
    fn open(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> (Span, Option<Canonical>) {
        let started = Instant::now();
        let canon = self
            .table
            .map(|_| Canonical::of(goals, rigid, var_watermark));
        let mut fingerprint = None;
        if let Some(o) = self.obs() {
            o.incr(Counter::SubtypeGoals);
            if canon.is_some() {
                o.add(Counter::ArenaTerms, 2 * goals.len() as u64);
            }
            // Fingerprint rendering is skipped entirely when nobody traces.
            if o.tracing() {
                let fp = match &canon {
                    Some(c) => c.key.fingerprint(),
                    None => Canonical::of(goals, rigid, var_watermark).key.fingerprint(),
                };
                o.trace(&TraceEvent::SubtypeStart { key: &fp });
                fingerprint = Some(fp);
            }
        }
        (
            Span {
                started,
                fingerprint,
            },
            canon,
        )
    }

    /// Closes a span opened by [`Self::open`]: records the timer and traces
    /// `subtype.end` with the verdict name.
    fn close(&self, span: Span, verdict: impl FnOnce() -> &'static str) {
        let Some(o) = self.obs() else {
            return;
        };
        let elapsed = span.started.elapsed();
        o.observe(Timer::SubtypeProve, elapsed);
        if let Some(fp) = &span.fingerprint {
            o.trace(&TraceEvent::SubtypeEnd {
                key: fp,
                verdict: verdict(),
                nanos: elapsed.as_nanos() as u64,
            });
        }
    }

    /// The judgement itself, shared by every entry point: a table hit is
    /// translated back into the caller's variables; a miss (or no table)
    /// is derived live and, when conclusive, recorded under `canon`'s key.
    /// Returns the proof with the derivation chain of a proved one (empty
    /// otherwise).
    fn lookup_or_derive(
        &self,
        canon: Option<Canonical>,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> (Proof, Arc<Vec<Step>>) {
        let generation = self.cs.generation();
        if let Some((table, canon)) = self.table.zip(canon.as_ref()) {
            match table.lookup(generation, &canon.key) {
                Some(CachedVerdict::Proved(answer, steps)) => {
                    return (Proof::Proved(canon.decode_answer(&answer)), steps);
                }
                Some(CachedVerdict::Refuted) => return (Proof::Refuted, Arc::default()),
                None => {}
            }
        }
        let (proof, steps) = self
            .prover
            .subtype_all_rigid_traced(goals, rigid, var_watermark);
        let steps = Arc::new(steps);
        if let Some((table, canon)) = self.table.zip(canon) {
            let cached = match &proof {
                Proof::Proved(answer) => canon
                    .encode_answer(answer)
                    .map(|a| CachedVerdict::Proved(a, Arc::clone(&steps))),
                Proof::Refuted => Some(CachedVerdict::Refuted),
                Proof::Unknown => None,
            };
            if let Some(verdict) = cached {
                table.insert(generation, canon.key, verdict);
            }
        }
        (proof, steps)
    }

    /// Greedy core shrinking for a refuted conjunction, deciding every
    /// candidate sub-conjunction through [`Self::subtype_all_rigid_quiet`].
    fn shrink_refuted(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Vec<usize> {
        let core = witness::shrink_core(goals, |subset| {
            self.subtype_all_rigid_quiet(subset, rigid, var_watermark)
                .is_refuted()
        });
        if let Some(o) = self.obs() {
            o.add(Counter::RefutedCoreSize, core.len() as u64);
        }
        core
    }

    /// The judgement with *no* query instrumentation: no `subtype_goals`
    /// tick, no closure counters, no timer, no span events. The table's own
    /// hit/miss/insert counters still move — those are excluded from
    /// scheduling invariance anyway — so core shrinking can lean on the memo
    /// table without making `subtype_goals` depend on how many Refuted
    /// verdicts were witnessed.
    fn subtype_all_rigid_quiet(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Proof {
        if let Some(proof) = self.closure_verdict(goals, false) {
            return proof;
        }
        let canon = self
            .table
            .map(|_| Canonical::of(goals, rigid, var_watermark));
        self.lookup_or_derive(canon, goals, rigid, var_watermark).0
    }

    /// Decides a batch of *independent* subtype goals (no shared
    /// substitution), returning one verdict per goal in input order.
    ///
    /// Goals are proved in canonical-key order, so alpha-variant duplicates
    /// are adjacent and every repeat after the first is a table hit — a batch
    /// with heavy duplication costs one derivation per distinct judgement
    /// regardless of input order.
    pub fn subtype_batch(&self, goals: &[(Term, Term)]) -> Vec<Proof> {
        let no_rigid = BTreeSet::new();
        let closure = self.cs.ground_closure();
        // Closure-decidable goals are answered directly (inside `subtype`,
        // which short-circuits before building any key); only the remainder
        // pays for canonical keys and the duplicate-adjacency sort.
        let mut out: Vec<Option<Proof>> = vec![None; goals.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, g) in goals.iter().enumerate() {
            match closure.decide_goals(std::slice::from_ref(g)) {
                ClosureVerdict::Proved | ClosureVerdict::Refuted => {
                    out[i] = Some(self.subtype(&g.0, &g.1));
                }
                ClosureVerdict::Miss | ClosureVerdict::NotGround => open.push(i),
            }
        }
        let keys: Vec<TableKey> = open
            .iter()
            .map(|&i| Canonical::of(std::slice::from_ref(&goals[i]), &no_rigid, 0).key)
            .collect();
        let mut by_key: Vec<usize> = (0..open.len()).collect();
        by_key.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        for k in by_key {
            let i = open[k];
            let (sup, sub) = &goals[i];
            out[i] = Some(self.subtype(sup, sub));
        }
        out.into_iter()
            .map(|p| p.expect("every goal index was visited"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::tests::world;

    #[test]
    fn alpha_variant_queries_share_one_entry() {
        let mut w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let (a, b) = (w.gen.fresh(), w.gen.fresh());
        let (x, y) = (w.gen.fresh(), w.gen.fresh());
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let nelist_b = Term::app(w.nelist, vec![Term::Var(b)]);
        let list_x = Term::app(w.list, vec![Term::Var(x)]);
        let nelist_y = Term::app(w.nelist, vec![Term::Var(y)]);
        assert!(p.subtype(&list_a, &nelist_b).is_proved());
        assert!(p.subtype(&list_x, &nelist_y).is_proved());
        let stats = table.stats();
        assert_eq!(stats.misses, 1, "first query misses");
        assert_eq!(stats.hits, 1, "alpha-variant repeat hits");
        assert_eq!(table.len(), 1, "one shared entry");
    }

    #[test]
    fn hit_answers_bind_the_callers_own_variables() {
        let mut w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let item = w.num(2);
        let a = w.gen.fresh();
        let first = p.member(
            &Term::app(w.list, vec![Term::Var(a)]),
            &w.list_of(std::slice::from_ref(&item)),
        );
        let b = w.gen.fresh();
        let second = p.member(
            &Term::app(w.list, vec![Term::Var(b)]),
            &w.list_of(std::slice::from_ref(&item)),
        );
        assert_eq!(table.stats().hits, 1);
        // The translated answer must speak about b, not a, and witness the
        // same membership.
        let answer = second.answer().expect("proved");
        let witness = answer.resolve(&Term::Var(b));
        assert!(!witness.is_var(), "b is bound by the translated answer");
        assert!(p.prover().member(&witness, &item).is_proved());
        let _ = first;
    }

    #[test]
    fn distinct_goals_do_not_collide() {
        // Ground goals whose supertype is outside the nullary-reachable node
        // set (`list(int)` etc.) — closure misses, so they exercise the
        // table layer. Nullary ground goals would short-circuit before it.
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert!(p.subtype(&list_nat, &elist).is_proved());
        let stats = table.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(table.len(), 3);
        // Repeats of each now hit, with unchanged verdicts.
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert_eq!(table.stats().hits, 1);
    }

    #[test]
    fn rigidity_is_part_of_the_key() {
        // The same goal with a rigid vs flexible variable has different
        // verdicts — int >= W is provable for flexible W (W := nat) but not
        // for rigid W — so the two must occupy different entries.
        let mut w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let v = w.gen.fresh();
        let goal = [(Term::constant(w.int), Term::Var(v))];
        let flexible = p.subtype_all_rigid(&goal, &BTreeSet::new(), w.gen.watermark());
        let rigid: BTreeSet<Var> = [v].into_iter().collect();
        let inert = p.subtype_all_rigid(&goal, &rigid, w.gen.watermark());
        assert!(flexible.is_proved());
        assert!(inert.is_refuted());
        assert_eq!(table.stats().hits, 0);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn unknown_is_never_cached() {
        let mut w = world();
        let table = ProofTable::new();
        let config = ProverConfig {
            var_expansion_budget: 0,
            ..ProverConfig::default()
        };
        let p = TabledProver::with_config(&w.sig, &w.cs, config, Some(&table));
        let a = w.gen.fresh();
        let ty = Term::app(w.list, vec![Term::Var(a)]);
        let t = w.list_of(&[w.num(0), w.num(-1)]);
        assert!(p.member(&ty, &t).is_unknown());
        assert!(p.member(&ty, &t).is_unknown());
        let stats = table.stats();
        assert_eq!(stats.misses, 2, "both calls fall through");
        assert_eq!(stats.inserts, 0, "Unknown never stored");
        assert!(table.is_empty());
    }

    #[test]
    fn fifo_eviction_under_tiny_capacity() {
        let w = world();
        let table = ProofTable::with_capacity(2);
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let g1 = Term::app(w.list, vec![Term::constant(w.int)]);
        let g2 = Term::app(w.list, vec![Term::constant(w.nat)]);
        let g3 = Term::app(w.list, vec![Term::constant(w.unnat)]);
        // Three distinct judgements (all closure misses) into a 2-entry table.
        p.subtype(&g1, &elist); // entry 1
        p.subtype(&g2, &elist); // entry 2
        p.subtype(&g3, &elist); // entry 3, evicts entry 1
        let stats = table.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(table.len(), 2);
        // Entry 1 was evicted: re-asking misses; entry 3 still hits.
        p.subtype(&g1, &elist);
        assert_eq!(table.stats().hits, 0);
        p.subtype(&g3, &elist);
        assert_eq!(table.stats().hits, 1);
    }

    /// Builds a distinct canonical key without running the prover, so the
    /// eviction tests can drive `insert` directly.
    fn key_of(sup: lp_term::Sym, sub: lp_term::Sym) -> TableKey {
        Canonical::of(
            &[(Term::constant(sup), Term::constant(sub))],
            &BTreeSet::new(),
            0,
        )
        .key
    }

    /// Regression test for the eviction double-count: re-inserting a key
    /// that is already cached must not push a second copy onto the FIFO
    /// order queue. With the duplicate push, the queue grows past the entry
    /// map, a later insert pops a stale slot (charging `evictions` for a key
    /// that is already gone), and — since each insert evicts at most one
    /// queue slot — the table overshoots its capacity bound.
    #[test]
    fn reinsert_under_capacity_pressure_does_not_double_count() {
        let w = world();
        let table = ProofTable::with_capacity(2);
        let a = key_of(w.int, w.nat);
        let b = key_of(w.int, w.unnat);
        let c = key_of(w.nat, w.unnat);
        let d = key_of(w.nat, w.int);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);

        table.insert(0, a.clone(), CachedVerdict::Refuted);
        // Overwrite: same key again, now with an answer. Must not enqueue a
        // second FIFO slot for `a`.
        table.insert(
            0,
            a.clone(),
            CachedVerdict::Proved(Subst::new(), Arc::new(Vec::new())),
        );
        assert_eq!(table.len(), 1, "re-insert did not add an entry");
        assert!(
            matches!(table.lookup(0, &a), Some(CachedVerdict::Proved(..))),
            "re-insert updated the verdict in place"
        );

        table.insert(0, b.clone(), CachedVerdict::Refuted); // fills the table
        table.insert(0, c.clone(), CachedVerdict::Refuted); // evicts a (oldest)
        table.insert(0, d.clone(), CachedVerdict::Refuted); // evicts b

        let stats = table.stats();
        assert!(
            table.len() <= table.capacity(),
            "capacity bound violated: {} entries in a {}-entry table",
            table.len(),
            table.capacity()
        );
        assert_eq!(stats.evictions, 2, "exactly one eviction per overflow");
        assert_eq!(stats.inserts, 4, "four distinct keys stored");
        // FIFO order survived the overwrite: the live entries are the two
        // most recent keys, and the overwritten key really is gone.
        assert!(table.lookup(0, &c).is_some(), "c is live");
        assert!(table.lookup(0, &d).is_some(), "d is live");
        assert!(table.lookup(0, &a).is_none(), "a was evicted first");
        assert!(table.lookup(0, &b).is_none(), "b was evicted second");
    }

    /// The FIFO bug fixed in this PR: an in-place verdict update used to
    /// leave the key at its original queue position, so a hot, just-re-proved
    /// entry could be evicted as if it were the coldest one. Updates now move
    /// the key to the queue tail.
    #[test]
    fn in_place_update_moves_key_to_fifo_tail() {
        let w = world();
        let table = ProofTable::with_capacity(2);
        let a = key_of(w.int, w.nat);
        let b = key_of(w.int, w.unnat);
        let c = key_of(w.nat, w.unnat);
        table.insert(0, a.clone(), CachedVerdict::Refuted);
        table.insert(0, b.clone(), CachedVerdict::Refuted);
        // Re-prove `a`: it is now the hottest entry, leaving `b` the oldest.
        table.insert(
            0,
            a.clone(),
            CachedVerdict::Proved(Subst::new(), Arc::new(Vec::new())),
        );
        assert_eq!(table.len(), 2, "in-place update added no entry");
        // Overflow must evict `b`, not the just-updated `a`.
        table.insert(0, c.clone(), CachedVerdict::Refuted);
        let stats = table.stats();
        assert_eq!(table.len(), 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3, "an in-place update is not an insert");
        assert!(table.lookup(0, &a).is_some(), "hot re-proved key survives");
        assert!(table.lookup(0, &c).is_some(), "new key is live");
        assert!(table.lookup(0, &b).is_none(), "the cold key was evicted");
    }

    /// Fully ground goals over the nullary fragment are answered by the
    /// precomputed closure: no canonical key is built, and the table is
    /// never consulted.
    #[test]
    fn ground_goals_short_circuit_through_the_closure() {
        let w = world();
        let obs = MetricsRegistry::shared();
        let table = ProofTable::with_metrics(Arc::clone(&obs));
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        assert!(p
            .subtype(&Term::constant(w.int), &Term::constant(w.nat))
            .is_proved());
        assert!(p
            .subtype(&Term::constant(w.nat), &Term::constant(w.int))
            .is_refuted());
        assert!(p
            .subtype(&Term::constant(w.elist), &Term::constant(w.elist))
            .is_proved());
        assert_eq!(obs.get(Counter::ClosureHits), 3);
        assert_eq!(obs.get(Counter::ClosureMisses), 0);
        assert_eq!(obs.get(Counter::ArenaTerms), 0, "no keys were encoded");
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 0, "table never consulted");
        assert_eq!(table.len(), 0);
        // A ground goal outside the node set still takes the table path.
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &Term::constant(w.elist)).is_proved());
        assert_eq!(obs.get(Counter::ClosureMisses), 1);
        assert_eq!(table.stats().misses, 1);
        assert_eq!(obs.get(Counter::ArenaTerms), 2, "one goal, two terms");
    }

    #[test]
    fn counter_accuracy_over_a_mixed_run() {
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        for _ in 0..5 {
            assert!(p.subtype(&list_int, &elist).is_proved());
        }
        for _ in 0..3 {
            assert!(p.subtype(&nelist_int, &elist).is_refuted());
        }
        let stats = table.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn generation_mismatch_invalidates_wholesale() {
        let w1 = world();
        let w2 = world(); // identical constraints, different generation
        assert_ne!(w1.cs.generation(), w2.cs.generation());
        let table = ProofTable::new();
        let sup1 = Term::app(w1.list, vec![Term::constant(w1.int)]);
        let sub1 = Term::constant(w1.elist);
        {
            let p = TabledProver::new(&w1.sig, &w1.cs, Some(&table));
            p.subtype(&sup1, &sub1);
            p.subtype(&sup1, &sub1);
            assert_eq!(table.stats().hits, 1);
        }
        {
            // Switching worlds clears the table: the same-looking query
            // misses again instead of reusing w1's verdict.
            let p = TabledProver::new(&w2.sig, &w2.cs, Some(&table));
            let sup2 = Term::app(w2.list, vec![Term::constant(w2.int)]);
            p.subtype(&sup2, &Term::constant(w2.elist));
            let stats = table.stats();
            assert_eq!(stats.hits, 1, "no new hit across worlds");
            assert_eq!(stats.invalidations, 1);
            assert_eq!(table.generation(), w2.cs.generation());
        }
    }

    #[test]
    fn batch_sorts_duplicates_into_hits() {
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        // Interleaved duplicates, deliberately out of order; all three are
        // closure misses so every judgement goes through the table.
        let goals = vec![
            (list_int.clone(), elist.clone()),
            (nelist_int.clone(), elist.clone()),
            (list_int.clone(), elist.clone()),
            (list_nat.clone(), elist.clone()),
            (nelist_int.clone(), elist.clone()),
            (list_int.clone(), elist.clone()),
        ];
        let proofs = p.subtype_batch(&goals);
        assert_eq!(proofs.len(), goals.len());
        assert!(proofs[0].is_proved());
        assert!(proofs[1].is_refuted());
        assert!(proofs[2].is_proved());
        assert!(proofs[3].is_proved());
        assert!(proofs[4].is_refuted());
        assert!(proofs[5].is_proved());
        let stats = table.stats();
        assert_eq!(stats.misses, 3, "three distinct judgements");
        assert_eq!(stats.hits, 3, "every duplicate hits");
    }

    #[test]
    fn tabled_and_untabled_agree_on_the_paper_world() {
        let mut w = world();
        let table = ProofTable::new();
        let tabled = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let untabled = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let cases = vec![
            (Term::constant(w.int), Term::constant(w.nat)),
            (Term::constant(w.nat), Term::constant(w.int)),
            (
                Term::app(w.list, vec![Term::constant(w.int)]),
                Term::constant(w.elist),
            ),
            (
                Term::app(w.list, vec![Term::Var(a)]),
                w.list_of(&[w.num(1)]),
            ),
            (Term::constant(w.nat), w.num(3)),
            (Term::constant(w.nat), w.num(-3)),
        ];
        // Two passes: the second is served from the table.
        for _ in 0..2 {
            for (sup, sub) in &cases {
                let t = tabled.subtype(sup, sub);
                let u = untabled.subtype(sup, sub);
                assert_eq!(
                    std::mem::discriminant(&t),
                    std::mem::discriminant(&u),
                    "verdicts diverge on {sup:?} >= {sub:?}: {t:?} vs {u:?}"
                );
            }
        }
    }

    #[test]
    fn alpha_variant_queries_share_one_entry_across_threads() {
        let mut w = world();
        let table = ProofTable::new();
        let (a, b) = (w.gen.fresh(), w.gen.fresh());
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let nelist_b = Term::app(w.nelist, vec![Term::Var(b)]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
                    assert!(p.subtype(&list_a, &nelist_b).is_proved());
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 4, "every call counted");
        assert_eq!(stats.inserts, 1, "racing misses update one entry in place");
        assert_eq!(table.len(), 1, "one shared entry across all threads");
    }

    /// The entry of `list(A) ⪰ [30 nats]` is far larger than the 240-word
    /// bucket payload the lock-free store had, which declined it: a shared
    /// table under `--jobs 2` then never cached it. One table stores every
    /// entry, whatever its size, for every thread.
    #[test]
    fn oversize_entries_are_stored_and_shared_across_threads() {
        let mut w = world();
        let items: Vec<Term> = (0..30).map(|i| w.num(i % 5)).collect();
        let long = w.list_of(&items);
        let a = w.gen.fresh();
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let key = Canonical::of(&[(list_a.clone(), long.clone())], &BTreeSet::new(), 0).key;
        assert!(key.code.len() > 240, "entry of {} words", key.code.len());
        let table = ProofTable::new();
        for _ in 0..2 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
                    assert!(p.member(&list_a, &long).is_proved());
                });
            });
        }
        let stats = table.stats();
        assert_eq!(stats.inserts, 1, "the first thread's verdict is stored");
        assert_eq!(stats.hits, 1, "the second thread hits it");
    }

    /// A lookup or insert that finds the lock taken counts the wait
    /// (`table_read_retries` / `shard_contention`) and then blocks: it
    /// never skips, so the insert still lands. `stats()` takes no lock, so
    /// a stats poll never waits behind working threads.
    #[test]
    fn a_busy_lock_is_counted_then_waited_for() {
        let w = world();
        let table = ProofTable::new();
        let obs = Arc::clone(table.metrics());
        let (a, b) = (key_of(w.int, w.nat), key_of(w.int, w.unnat));
        let wait_for = |counter: Counter| {
            while obs.get(counter) == 0 {
                std::thread::yield_now();
            }
        };
        let held = table.entries.lock().expect("fresh lock");
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| table.lookup(0, &a));
            wait_for(Counter::TableReadRetries);
            let (tx, rx) = std::sync::mpsc::channel();
            let table = &table;
            scope.spawn(move || tx.send(table.stats()).expect("receiver alive"));
            rx.recv_timeout(std::time::Duration::from_secs(5))
                .expect("stats() completed while the lock was held");
            drop(held);
            assert!(worker.join().expect("lookup finished").is_none());
        });
        let held = table.entries.lock().expect("healthy lock");
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| table.insert(0, b.clone(), CachedVerdict::Refuted));
            wait_for(Counter::ShardContention);
            drop(held);
            worker.join().expect("insert finished");
        });
        assert_eq!(obs.get(Counter::TableReadRetries), 1);
        assert_eq!(obs.get(Counter::ShardContention), 1);
        assert_eq!(table.stats().inserts, 1, "the contended insert landed");
        assert!(table.lookup(0, &b).is_some());
    }

    #[test]
    fn poisoned_lock_recovers_and_keeps_checking() {
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert_eq!(table.len(), 1, "warm entry before the fault");
        // The fault the serve harness injects: a panic while the lock is
        // held, after which the cache state is no longer trusted.
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.panic_holding_lock("injected fault")
        }));
        assert!(fault.is_err());
        assert!(table.entries.is_poisoned());
        let invalidations = table.stats().invalidations;
        // The next access recovers (wipe + unpoison) and verdicts come back
        // correct.
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert!(!table.entries.is_poisoned());
        assert_eq!(table.stats().invalidations, invalidations + 1);
        assert_eq!(table.len(), 2, "table rebuilt after poison recovery");
    }

    #[test]
    fn rescope_keeps_proofs_whose_constraints_survive() {
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&list_nat, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert_eq!(table.len(), 3);
        // Extend the theory with one (redundant) constraint: a pure
        // addition, so every old index is unchanged — proofs must stay,
        // the refutation must go.
        let mut set2 = w.cs.as_set().clone();
        set2.add(&w.sig, Term::constant(w.int), Term::constant(w.nat))
            .unwrap();
        let cs2 = set2.checked(&w.sig).unwrap();
        let kept = table.rescope(cs2.generation(), &|_| true, false);
        assert_eq!(
            kept, 2,
            "both proved entries survive, the refuted one is dropped"
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.metrics().get(Counter::IncrementalReuse), 2);
        // The survivors are served as hits under the new theory.
        let misses = table.stats().misses;
        let p2 = TabledProver::new(&w.sig, &cs2, Some(&table));
        assert!(p2.subtype(&list_int, &elist).is_proved());
        assert_eq!(table.stats().misses, misses, "retained entry hits");
    }

    /// An all-ground nullary batch is decided entirely by the precomputed
    /// closure — no canonical keys, no lock, no table traffic — from one
    /// thread or several.
    #[test]
    fn all_ground_batch_never_touches_the_table() {
        let w = world();
        let table = ProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, Some(&table));
        let goals: Vec<(Term, Term)> = vec![
            (Term::constant(w.int), Term::constant(w.nat)),
            (Term::constant(w.nat), Term::constant(w.int)),
            (Term::constant(w.int), Term::constant(w.unnat)),
            (Term::constant(w.elist), Term::constant(w.nil)),
            (Term::constant(w.nat), w.num(2)),
        ];
        let proofs = p.subtype_batch(&goals);
        assert!(proofs[0].is_proved());
        assert!(proofs[1].is_refuted());
        assert!(proofs[2].is_proved());
        assert!(proofs[3].is_proved());
        assert!(proofs[4].is_proved());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (sup, sub) in &goals {
                        assert!(!p.subtype(sup, sub).is_unknown());
                    }
                });
            }
        });
        let obs = table.metrics();
        assert_eq!(obs.get(Counter::ClosureHits), 5 * goals.len() as u64);
        assert_eq!(obs.get(Counter::ClosureMisses), 0);
        assert_eq!(obs.get(Counter::ArenaTerms), 0, "no keys were encoded");
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses + stats.inserts, 0);
        assert_eq!(
            obs.get(Counter::TableReadRetries),
            0,
            "the lock was never taken"
        );
        assert_eq!(table.len(), 0);
    }

    /// With no table the front end still answers through the closure tier
    /// and accounts into the attached registry.
    #[test]
    fn untabled_front_end_derives_live_and_reports_into_obs() {
        let w = world();
        let obs = MetricsRegistry::shared();
        let p = TabledProver::new(&w.sig, &w.cs, None).with_obs(Some(&obs));
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        for _ in 0..2 {
            assert!(p.subtype(&list_int, &elist).is_proved());
        }
        assert!(p
            .subtype(&Term::constant(w.int), &Term::constant(w.nat))
            .is_proved());
        assert_eq!(obs.get(Counter::SubtypeGoals), 3);
        assert_eq!(obs.get(Counter::ClosureHits), 1);
        assert_eq!(obs.get(Counter::ClosureMisses), 2);
        assert_eq!(obs.get(Counter::TableMisses), 0, "no table, no lookups");
        assert_eq!(obs.get(Counter::ArenaTerms), 0, "no keys were encoded");
    }
}
