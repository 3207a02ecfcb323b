//! F6 — proof-table effectiveness: the tabled prover against the untabled
//! prover on workloads that repeat subtype judgements.
//!
//! Two workload shapes:
//!
//! * **Batches** of independent goals where most goals are alpha-variant
//!   repeats of a few distinct judgements (the shape the well-typedness
//!   checker produces across the clauses of one program). The tabled prover
//!   pays one derivation per distinct judgement; the untabled prover pays
//!   one per goal.
//! * **Theorem 6 audits** sharing one table across all resolvent checks of
//!   an nrev run (successive resolvents pose alpha-variant conjunctions).
//!
//! Expected shape: tabled wins by roughly `n / distinct` on batches (capped
//! by the per-hit canonicalization cost) and trims the audit's prover share
//! by its hit rate; acceptance is ≥2× on the repeated-query batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lp_gen::{programs, worlds};
use subtype_core::consistency::{AuditConfig, Auditor};
use subtype_core::{Checker, ProofTable, Prover, TabledProver};

fn bench_batch_untabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("f6_batch_untabled");
    for &n in bench::F6_BATCH {
        let mut world = worlds::paper_world();
        let goals = bench::alpha_variant_goals(&mut world, n, bench::F6_DISTINCT);
        let prover = Prover::new(&world.sig, &world.checked);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                for (sup, sub) in std::hint::black_box(&goals) {
                    assert!(prover.subtype(sup, sub).is_proved());
                }
            });
        });
    }
    group.finish();
}

fn bench_batch_tabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("f6_batch_tabled");
    for &n in bench::F6_BATCH {
        let mut world = worlds::paper_world();
        let goals = bench::alpha_variant_goals(&mut world, n, bench::F6_DISTINCT);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                // A cold table per iteration: the measured speedup includes
                // the misses that populate it.
                let table = ProofTable::new();
                let prover = TabledProver::new(&world.sig, &world.checked, Some(&table));
                for verdict in prover.subtype_batch(std::hint::black_box(&goals)) {
                    assert!(verdict.is_proved());
                }
            });
        });
    }
    group.finish();
}

fn bench_audit(c: &mut Criterion) {
    // The realistic repeated-judgement workload: a Theorem 6 audit
    // re-checks every resolvent of an nrev run, and successive resolvents
    // keep posing alpha-variant subtype conjunctions.
    let w = bench::workload(&programs::nrev(8));
    let db = w.module.database();
    let goals = w.module.queries[0].goals.clone();
    let config = AuditConfig {
        max_solutions: 1,
        ..AuditConfig::default()
    };

    let mut group = c.benchmark_group("f6_audit");
    group.bench_function("untabled", |b| {
        let auditor = Auditor::new(Checker::new(&w.module.sig, &w.checked, &w.preds));
        b.iter(|| {
            assert!(auditor
                .run(std::hint::black_box(&db), &goals, config)
                .is_clean());
        });
    });
    group.bench_function("tabled", |b| {
        b.iter(|| {
            let table = ProofTable::new();
            let checker =
                Checker::new(&w.module.sig, &w.checked, &w.preds).with_proof_table(Some(&table));
            assert!(Auditor::new(checker)
                .run(std::hint::black_box(&db), &goals, config)
                .is_clean());
        });
    });
    group.finish();
}

criterion_group!(f6, bench_batch_untabled, bench_batch_tabled, bench_audit);
criterion_main!(f6);
