//! Differential property tests locking [`TabledProver`] to [`Prover`].
//!
//! The tabled prover must be *observationally identical* to the untabled
//! one: same verdict, same answer substitution, on every query — whether
//! the table answers from a cached entry (decoded back into the caller's
//! variables) or falls through to a live derivation, and whether one
//! thread uses the table or several share it. These tests drive the
//! provers over randomly generated guarded worlds and assert exact
//! [`Proof`] equality, including runs that interleave queries against
//! mutated (rebuilt) constraint theories through one shared table, and
//! runs where several threads race on the same keys while the table is
//! rescoped or switched between theories under them.
//!
//! Strategy: proptest supplies seeds; worlds and types are drawn from the
//! deterministic `lp-gen` generators, so every failure is reproducible from
//! the seed alone.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lp_gen::{terms, worlds};
use lp_term::{Signature, SymKind, Term, Var};
use subtype_core::{ConstraintSet, Counter, Proof, ProofTable, Prover, ProverConfig, TabledProver};

/// Search budget for both provers. Random refutable goals exhaust whatever
/// budget they are given, so the default (1M steps) would make 300 cases
/// take hours; a small budget keeps the suite fast while preserving the
/// property — both provers run the same deterministic search, so budget
/// cuts ([`Proof::Unknown`]) must line up exactly too.
const CONFIG: ProverConfig = ProverConfig {
    var_expansion_budget: 4,
    max_steps: 10_000,
};

/// Draws `n` (sup, sub) goal pairs over `world`: a mix of closed types and
/// open types sharing two fresh variables (open goals exercise answer
/// encoding/decoding through the canonical key space). Goal variables are
/// drawn from the world's own generator so they are standardized apart from
/// the constraint parameters, as every real caller guarantees.
fn goal_pairs(
    rng: &mut StdRng,
    world: &worlds::BuiltWorld,
    n: usize,
) -> (Vec<(Term, Term)>, [Var; 2]) {
    let mut gen = world.gen.clone();
    let vars = [gen.fresh(), gen.fresh()];
    let goals = (0..n)
        .map(|i| {
            let scope: &[Var] = if i % 2 == 0 { &[] } else { &vars };
            let sup = terms::random_type(rng, world, 2, scope);
            let sub = terms::random_type(rng, world, 2, scope);
            (sup, sub)
        })
        .collect();
    (goals, vars)
}

/// Asserts the tabled prover agrees with the untabled one on `goals`, both
/// on the first (miss) and second (hit) pass; the front end without a
/// table agrees too.
fn assert_agreement(
    world: &worlds::BuiltWorld,
    tabled: &TabledProver<'_>,
    goals: &[(Term, Term)],
) -> Result<(), TestCaseError> {
    let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
    let untabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, None);
    for (sup, sub) in goals {
        let reference = plain.subtype(sup, sub);
        prop_assert_eq!(&reference, &untabled.subtype(sup, sub));
        let miss = tabled.subtype(sup, sub);
        prop_assert_eq!(
            &reference,
            &miss,
            "first (miss) pass diverged on {:?} >= {:?}",
            sup,
            sub
        );
        let hit = tabled.subtype(sup, sub);
        prop_assert_eq!(
            &reference,
            &hit,
            "second (hit) pass diverged on {:?} >= {:?}",
            sup,
            sub
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The headline differential property: over random guarded worlds, the
    /// tabled prover returns byte-identical proofs to the untabled prover,
    /// both when populating the table and when answering from it.
    #[test]
    fn tabled_prover_is_observationally_identical(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let table = ProofTable::new();
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, Some(&table));
        assert_agreement(&world, &tabled, &goals)?;
        // Every query is accounted for: answered by the ground closure, or
        // by the table (a miss on the first pass, a hit on the repeat).
        let stats = table.stats();
        let closure_hits = table.metrics().get(Counter::ClosureHits);
        prop_assert_eq!(
            stats.hits + stats.misses + closure_hits,
            2 * goals.len() as u64
        );
    }

    /// Conjunction goals with shared variables and rigid footprints agree
    /// too (this is the exact entry point the well-typedness checker uses).
    #[test]
    fn rigid_conjunctions_agree(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, vars) = goal_pairs(&mut rng, &world, 3);
        let watermark = vars[1].0 + 1;
        let rigid: BTreeSet<Var> = [vars[1]].into_iter().collect();
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let table = ProofTable::new();
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, Some(&table));
        let reference = plain.subtype_all_rigid(&goals, &rigid, watermark);
        let miss = tabled.subtype_all_rigid(&goals, &rigid, watermark);
        prop_assert_eq!(&reference, &miss);
        let hit = tabled.subtype_all_rigid(&goals, &rigid, watermark);
        prop_assert_eq!(&reference, &hit);
    }

    /// Interleaving queries against *different* constraint theories through
    /// one shared table never leaks a verdict across theories: after every
    /// switch the table is answering for the right world.
    #[test]
    fn interleaved_theory_switches_never_serve_stale_verdicts(seed in any::<u64>()) {
        let world_a = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let world_b = worlds::random((seed % 512) + 1, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let table = ProofTable::new();
        let tabled_a = TabledProver::with_config(&world_a.sig, &world_a.checked, CONFIG, Some(&table));
        let tabled_b = TabledProver::with_config(&world_b.sig, &world_b.checked, CONFIG, Some(&table));
        for _ in 0..2 {
            let (mut goals_a, va) = goal_pairs(&mut rng, &world_a, 2);
            // A non-ground goal per segment: the closure abstains on it, so
            // every segment provably reaches the table and the theory switch
            // is observed there.
            goals_a.push((Term::Var(va[0]), Term::Var(va[1])));
            assert_agreement(&world_a, &tabled_a, &goals_a)?;
            let (mut goals_b, vb) = goal_pairs(&mut rng, &world_b, 2);
            goals_b.push((Term::Var(vb[0]), Term::Var(vb[1])));
            assert_agreement(&world_b, &tabled_b, &goals_b)?;
        }
        // Each switch between theories wholesale-invalidated the table.
        prop_assert!(table.stats().invalidations >= 3);
    }

    /// `subtype_batch` returns, per goal, exactly what the untabled prover
    /// returns — input order in, input order out, whatever the internal
    /// proving order.
    #[test]
    fn batch_verdicts_match_untabled_per_goal(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        // Duplicate some goals so the batch path actually hits the table.
        let (mut goals, _) = goal_pairs(&mut rng, &world, 3);
        goals.push(goals[0].clone());
        goals.push(goals[1].clone());
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let table = ProofTable::new();
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, Some(&table));
        let batch = tabled.subtype_batch(&goals);
        prop_assert_eq!(batch.len(), goals.len());
        for ((sup, sub), verdict) in goals.iter().zip(&batch) {
            prop_assert_eq!(&plain.subtype(sup, sub), verdict);
        }
    }
}

/// A true in-place mutation that *flips* a verdict: `d(z) >= c` is refuted
/// until the link `b >= c` is added, after which it is derivable. A stale
/// table entry surviving the mutation would wrongly answer `Refuted`. The
/// supertype is a parameterized application so the goal stays outside the
/// nullary ground closure and genuinely exercises the table.
#[test]
fn mutated_theory_flips_a_cached_refutation() {
    let mut sig = Signature::new();
    let z = sig.declare_with_arity("z", SymKind::Func, 0).unwrap();
    let b = sig.declare_with_arity("b", SymKind::TypeCtor, 0).unwrap();
    let c = sig.declare_with_arity("c", SymKind::TypeCtor, 0).unwrap();
    let d = sig.declare_with_arity("d", SymKind::TypeCtor, 1).unwrap();

    let mut cs = ConstraintSet::new();
    let x = Term::Var(Var(0));
    cs.add(&sig, Term::app(d, vec![x]), Term::constant(b))
        .unwrap();
    cs.add(&sig, Term::constant(b), Term::constant(z)).unwrap();
    cs.add(&sig, Term::constant(c), Term::constant(z)).unwrap();

    let table = ProofTable::new();
    let goal = (Term::app(d, vec![Term::constant(z)]), Term::constant(c));

    let before = cs.clone().checked(&sig).unwrap();
    let tabled = TabledProver::new(&sig, &before, Some(&table));
    assert_eq!(tabled.subtype(&goal.0, &goal.1), Proof::Refuted);
    assert_eq!(tabled.subtype(&goal.0, &goal.1), Proof::Refuted);
    assert_eq!(table.stats().hits, 1, "refutation was cached");

    // Mutate: add the missing link a >= b >= c.
    cs.add(&sig, Term::constant(b), Term::constant(c)).unwrap();
    let after = cs.clone().checked(&sig).unwrap();
    let tabled = TabledProver::new(&sig, &after, Some(&table));
    assert!(
        tabled.subtype(&goal.0, &goal.1).is_proved(),
        "stale Refuted must not survive the mutation"
    );
    assert!(table.stats().invalidations >= 1);
}

proptest! {
    // Thread spawning per case is comparatively expensive; fewer cases
    // still cover many worlds while keeping the suite quick.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four threads sharing one table — mixing repeated and distinct goals,
    /// so the same key is raced, hit, and updated in place — each observe
    /// exactly the untabled prover's proofs.
    #[test]
    fn concurrent_queries_match_untabled_verdicts(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let expected: Vec<Proof> = goals.iter().map(|(a, b)| plain.subtype(a, b)).collect();
        let table = ProofTable::new();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (world, goals, expected, table) = (&world, &goals, &expected, &table);
                scope.spawn(move || {
                    let tabled =
                        TabledProver::with_config(&world.sig, &world.checked, CONFIG, Some(table));
                    // Each thread walks the goals from a different offset so
                    // misses and hits interleave across threads.
                    for i in 0..goals.len() {
                        let j = (i + t) % goals.len();
                        let (sup, sub) = &goals[j];
                        assert_eq!(
                            tabled.subtype(sup, sub),
                            expected[j],
                            "thread {t} diverged on goal {j}"
                        );
                    }
                });
            }
        });
        // Every query is answered by the closure or looks the table up
        // exactly once: 16 queries in total.
        let stats = table.stats();
        let closure_hits = table.metrics().get(Counter::ClosureHits);
        prop_assert_eq!(stats.hits + stats.misses + closure_hits, 16);
    }

    /// Schedule fuzzing: four threads hammer a deliberately tiny table
    /// (evictions on nearly every insert, races on shared hot keys) while
    /// one of them keeps `rescope`-ing it to a foreign generation, so every
    /// other thread's next touch has to re-align and re-derive. Whatever
    /// the interleaving, each query must come back *exactly* equal to the
    /// serial prover's proof — answers included — and never a verdict
    /// cached under a different generation.
    #[test]
    fn hot_keys_survive_interleaved_rescope_epochs(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let expected: Vec<Proof> = goals.iter().map(|(a, b)| plain.subtype(a, b)).collect();
        let table = ProofTable::with_capacity(2);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (world, goals, expected, table) = (&world, &goals, &expected, &table);
                scope.spawn(move || {
                    let tabled =
                        TabledProver::with_config(&world.sig, &world.checked, CONFIG, Some(table));
                    for round in 0..6usize {
                        for i in 0..goals.len() {
                            let j = (i + t + round) % goals.len();
                            let (sup, sub) = &goals[j];
                            assert_eq!(
                                tabled.subtype(sup, sub),
                                expected[j],
                                "thread {t} round {round} diverged on goal {j}"
                            );
                        }
                        if t == 0 {
                            // Shove the whole table into a generation no
                            // prover queries under; everyone else must
                            // re-align and re-derive, never serve stale.
                            table.rescope(
                                world.checked.generation() + 1 + round as u64,
                                &|_| true,
                                true,
                            );
                        }
                    }
                });
            }
        });
        prop_assert!(table.len() <= table.capacity());
    }
}

/// Two theories share one table: their signatures declare the same symbols
/// in the same order, so the goal `list(X) ⪰ elist` encodes to the *same
/// table key* under both — but theory 1 proves it and theory 2 refutes it.
/// Threads hammer both provers concurrently on a one-entry table, so the
/// generation flips on nearly every touch. Any lookup or insert that
/// honoured an entry of the other generation would hand one thread the
/// other theory's verdict.
#[test]
fn mixed_generations_never_leak_across_threads() {
    let mut sig = Signature::new();
    let elist = sig
        .declare("elist", SymKind::TypeCtor)
        .expect("fresh symbol");
    let list = sig
        .declare_with_arity("list", SymKind::TypeCtor, 1)
        .expect("fresh symbol");
    let mut cs = ConstraintSet::new();
    cs.add(
        &sig,
        Term::app(list, vec![Term::Var(Var(0))]),
        Term::constant(elist),
    )
    .expect("well-formed constraint");
    let proving = cs.checked(&sig).expect("guarded theory");
    let refuting = ConstraintSet::new().checked(&sig).expect("empty theory");
    assert_ne!(proving.generation(), refuting.generation());

    let table = ProofTable::with_capacity(1);
    let sup = Term::app(list, vec![Term::Var(Var(7))]);
    let sub = Term::constant(elist);
    std::thread::scope(|scope| {
        for (theory, want_proved) in [(&proving, true), (&refuting, false)] {
            for _ in 0..2 {
                let (sig, table, sup, sub) = (&sig, &table, &sup, &sub);
                scope.spawn(move || {
                    let p = TabledProver::with_config(sig, theory, CONFIG, Some(table));
                    for round in 0..400 {
                        let verdict = p.subtype(sup, sub);
                        assert_eq!(
                            verdict.is_proved(),
                            want_proved,
                            "round {round}: a verdict from the other \
                             generation leaked through (got {verdict:?})"
                        );
                    }
                });
            }
        }
    });
    assert!(
        table.stats().invalidations > 0,
        "the generations really did fight over the table"
    );
}
