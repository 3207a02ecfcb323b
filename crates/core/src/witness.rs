//! Proof witnesses: independently checkable evidence for subtype verdicts.
//!
//! A [`Proof::Proved`](crate::prover::Proof) verdict is trustworthy only as
//! far as the prover (and every cache between the prover and the caller) is
//! trustworthy. This module makes verdicts *auditable*: the prover records
//! the H_C clause chain it followed as a compact [`Witness`], and
//! [`validate`] replays that chain step by step against the constraint
//! theory alone — no prover, no table — so a verdict served from the memo
//! table (by any thread) or, in a daemon future, another process can be
//! re-checked from first principles.
//!
//! # The chain representation
//!
//! A [`Step`] names which H_C inference closes (or unfolds) the *current*
//! goal of a depth-first replay:
//!
//! * [`Step::Refl`] — under the answer substitution `θ` both sides of the
//!   goal are the same term; `⪰_C` is reflexive (derivable from the
//!   substitution axioms), so the goal is discharged.
//! * [`Step::Decompose`] — both sides are applications of one symbol
//!   `f(s₁…sₙ) ⪰ f(t₁…tₙ)`; the substitution axiom for `f` reduces the goal
//!   to the argument goals `sᵢ ⪰ tᵢ`, replayed in order.
//! * [`Step::Constraint(k)`] — two-step application (Definition 7) of the
//!   `k`-th constraint `c(α₁…αₙ) >= τ` (declaration order): the supertype
//!   must be a `c`-application `c(σ₁…σₙ)`, and the goal becomes
//!   `τ{αᵢ ↦ σᵢ} ⪰ t`.
//!
//! Steps carry **no terms and no variables** — only constraint indices —
//! so a chain is invariant under variable renaming. The same `Arc`'d chain
//! therefore validates a verdict in the caller's variable space *and* in
//! the canonical-key space the proof table stores answers in; the table
//! interns one chain per entry and every alpha-variant hit shares it.
//!
//! Replaying under the **final** answer `θ` is sound because the prover
//! only ever *extends* the substitution along the successful path: every
//! binding visible at some step of the live search is contained in `θ`, so
//! resolving both goal sides under `θ` reproduces (up to instantiation)
//! exactly what the search saw. Since answers are normalized (idempotent),
//! one resolution per goal suffices.
//!
//! # Refutation cores
//!
//! A refuted conjunction gets a different kind of evidence: a **minimal
//! failing sub-conjunction** ([`shrink_core`]). Greedy constraint-dropping
//! is sound here because satisfiability of a goal conjunction is monotone
//! under taking subsets (fewer goals constrain less): a goal kept because
//! dropping it from some superset made that superset satisfiable stays
//! necessary for every subsequent subset, so one left-to-right pass yields
//! a 1-minimal core — removing any single member makes the rest provable.
//! See DESIGN.md decision 12.

use std::fmt;
use std::sync::Arc;

use lp_term::{Signature, Subst, SymKind, Term};

use crate::constraint::{ConstraintSet, SubtypeConstraint};
use crate::prover::Proof;

/// One inference of an H_C derivation chain (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Both sides of the current goal are identical under the answer
    /// substitution; reflexivity of `⪰_C` discharges it.
    Refl,
    /// Substitution axiom: same outermost symbol on both sides; the goal
    /// unfolds into its argument goals, in order.
    Decompose,
    /// Two-step application of the constraint at this index (declaration
    /// order in the [`ConstraintSet`]).
    Constraint(usize),
}

/// A compact, independently checkable record of one `Proved` verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The goal conjunction the verdict answers, in the caller's variables.
    pub goals: Vec<(Term, Term)>,
    /// The (normalized) answer substitution `θ` of the derivation.
    pub answer: Subst,
    /// The derivation chain. Shared via `Arc` with the proof-table entry it
    /// was interned against (steps are variable-free, so one chain serves
    /// every alpha-variant of the goals).
    pub steps: Arc<Vec<Step>>,
}

/// A verdict together with its evidence.
///
/// The witnessed counterpart of [`Proof`]: `Proved` carries a replayable
/// [`Witness`], `Refuted` a 1-minimal failing subset of the goal indices,
/// and `Unknown` (a budget artifact) carries nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Witnessed {
    /// Derivable; the witness replays the derivation.
    Proved(Witness),
    /// Conclusively not derivable; `core` indexes a minimal failing
    /// sub-conjunction of the original goals.
    Refuted {
        /// Indices into the goal conjunction, ascending; removing any one
        /// member from this set makes the remainder provable.
        core: Vec<usize>,
    },
    /// The search was cut by a budget; no conclusion, no evidence.
    Unknown,
}

impl Witnessed {
    /// Whether a derivation was found.
    pub fn is_proved(&self) -> bool {
        matches!(self, Witnessed::Proved(_))
    }

    /// Whether non-derivability was established conclusively.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Witnessed::Refuted { .. })
    }

    /// Whether the search was inconclusive.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Witnessed::Unknown)
    }

    /// The witness, if proved.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Witnessed::Proved(w) => Some(w),
            _ => None,
        }
    }

    /// Drops the evidence, leaving the plain verdict.
    pub fn proof(&self) -> Proof {
        match self {
            Witnessed::Proved(w) => Proof::Proved(w.answer.clone()),
            Witnessed::Refuted { .. } => Proof::Refuted,
            Witnessed::Unknown => Proof::Unknown,
        }
    }
}

/// Why a witness failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The chain ended with goals still pending.
    IncompleteChain {
        /// Number of goals left unproved.
        remaining: usize,
    },
    /// The chain has steps left after every goal was discharged.
    TrailingSteps {
        /// Number of unused steps.
        unused: usize,
    },
    /// A `Refl` step whose goal sides differ under the answer.
    ReflMismatch {
        /// Index of the offending step.
        at: usize,
    },
    /// A `Decompose` step whose goal sides are not applications of one
    /// symbol with equal arity.
    NotDecomposable {
        /// Index of the offending step.
        at: usize,
    },
    /// A `Constraint` step naming an index past the constraint set.
    ConstraintOutOfRange {
        /// Index of the offending step.
        at: usize,
        /// The out-of-range constraint index.
        index: usize,
    },
    /// A `Constraint` step whose constraint does not apply to the goal's
    /// supertype (wrong constructor, wrong arity, or a non-uniform
    /// parameter).
    ConstraintMismatch {
        /// Index of the offending step.
        at: usize,
        /// The constraint index that failed to apply.
        index: usize,
    },
    /// The module's constraint declarations could not be rebuilt.
    BadTheory {
        /// The declaration error, rendered.
        detail: String,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::IncompleteChain { remaining } => {
                write!(f, "chain ended with {remaining} goal(s) still pending")
            }
            WitnessError::TrailingSteps { unused } => {
                write!(f, "{unused} step(s) remain after every goal was discharged")
            }
            WitnessError::ReflMismatch { at } => {
                write!(f, "step #{at}: Refl on a goal whose sides differ")
            }
            WitnessError::NotDecomposable { at } => {
                write!(f, "step #{at}: Decompose on a non-matching goal")
            }
            WitnessError::ConstraintOutOfRange { at, index } => {
                write!(f, "step #{at}: constraint index {index} is out of range")
            }
            WitnessError::ConstraintMismatch { at, index } => {
                write!(
                    f,
                    "step #{at}: constraint {index} does not apply to the goal"
                )
            }
            WitnessError::BadTheory { detail } => {
                write!(f, "cannot rebuild the constraint theory: {detail}")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// Validates `w` against the module's declarations by replaying its chain.
///
/// Rebuilds the constraint set from the module (declaration order, the same
/// order every checker uses) and delegates to [`validate_in`]. This is the
/// trust anchor: it never consults a prover or a proof table.
///
/// # Errors
///
/// A [`WitnessError`] naming the first step (or chain-shape defect) that
/// does not constitute a valid H_C derivation.
pub fn validate(module: &lp_parser::Module, w: &Witness) -> Result<(), WitnessError> {
    let cs = ConstraintSet::from_module(module).map_err(|e| WitnessError::BadTheory {
        detail: e.to_string(),
    })?;
    validate_in(&module.sig, cs.constraints(), w)
}

/// [`validate`] against an explicit signature and constraint list
/// (declaration order — `ConstraintSet::constraints()`).
///
/// # Errors
///
/// See [`validate`].
pub fn validate_in(
    sig: &Signature,
    constraints: &[SubtypeConstraint],
    w: &Witness,
) -> Result<(), WitnessError> {
    replay(sig, constraints, w, |_, _, _, _| {})
}

/// Replays the chain, invoking `on_step(index, step, sup, sub)` with the
/// resolved goal each step applies to — the hook `slp explain` renders
/// numbered derivations through. [`validate_in`] is `replay` with a no-op.
///
/// # Errors
///
/// See [`validate`]. `on_step` has been called for every step preceding the
/// failure.
pub fn replay(
    sig: &Signature,
    constraints: &[SubtypeConstraint],
    w: &Witness,
    mut on_step: impl FnMut(usize, Step, &Term, &Term),
) -> Result<(), WitnessError> {
    // Depth-first goal stack, top = current goal. Resolving once under the
    // (idempotent) answer is enough; later pushes only move already-resolved
    // subterms or substitute them into ground constraint bodies.
    let mut stack: Vec<(Term, Term)> = w
        .goals
        .iter()
        .rev()
        .map(|(sup, sub)| (w.answer.resolve(sup), w.answer.resolve(sub)))
        .collect();
    for (at, &step) in w.steps.iter().enumerate() {
        let Some((sup, sub)) = stack.pop() else {
            return Err(WitnessError::TrailingSteps {
                unused: w.steps.len() - at,
            });
        };
        let (sup, sub) = (w.answer.resolve(&sup), w.answer.resolve(&sub));
        on_step(at, step, &sup, &sub);
        match step {
            Step::Refl => {
                if sup != sub {
                    return Err(WitnessError::ReflMismatch { at });
                }
            }
            Step::Decompose => match (&sup, &sub) {
                (Term::App(f, fargs), Term::App(g, gargs))
                    if f == g && fargs.len() == gargs.len() =>
                {
                    for pair in fargs.iter().cloned().zip(gargs.iter().cloned()).rev() {
                        stack.push(pair);
                    }
                }
                _ => return Err(WitnessError::NotDecomposable { at }),
            },
            Step::Constraint(index) => {
                let Some(con) = constraints.get(index) else {
                    return Err(WitnessError::ConstraintOutOfRange { at, index });
                };
                let Term::App(c, args) = &sup else {
                    return Err(WitnessError::ConstraintMismatch { at, index });
                };
                if con.ctor() != *c
                    || con.params().len() != args.len()
                    || sig.kind(*c) != SymKind::TypeCtor
                {
                    return Err(WitnessError::ConstraintMismatch { at, index });
                }
                let mut bindings = Subst::new();
                for (param, arg) in con.params().iter().zip(args) {
                    match param {
                        Term::Var(v) => bindings.bind(*v, arg.clone()),
                        _ => return Err(WitnessError::ConstraintMismatch { at, index }),
                    }
                }
                stack.push((bindings.resolve(&con.rhs), sub));
            }
        }
    }
    if !stack.is_empty() {
        return Err(WitnessError::IncompleteChain {
            remaining: stack.len(),
        });
    }
    Ok(())
}

/// Greedily shrinks a refuted goal conjunction to a 1-minimal failing core.
///
/// `refutes` must decide sub-conjunctions of `goals` (typically by re-proving
/// under the memo table, so repeats are cheap); an inconclusive sub-proof
/// should report `false` (the member is conservatively kept). Returns the
/// kept indices, ascending. Soundness of the single left-to-right pass:
/// satisfiability is monotone under subsets, so a member that could not be
/// dropped from some superset can never be dropped from a subset of it.
pub fn shrink_core(
    goals: &[(Term, Term)],
    mut refutes: impl FnMut(&[(Term, Term)]) -> bool,
) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..goals.len()).collect();
    let mut i = 0;
    while i < kept.len() && kept.len() > 1 {
        let mut candidate = kept.clone();
        candidate.remove(i);
        let subset: Vec<(Term, Term)> = candidate.iter().map(|&j| goals[j].clone()).collect();
        if refutes(&subset) {
            kept = candidate;
        } else {
            i += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::tests::{world, World};
    use crate::prover::Prover;

    /// A traced proof of `sup ⪰ sub` in the paper world, as a witness.
    fn witness_of(w: &World, goals: &[(Term, Term)]) -> Witness {
        let p = Prover::new(&w.sig, &w.cs);
        let (proof, steps) = p.subtype_all_rigid_traced(goals, &Default::default(), 0);
        let Proof::Proved(answer) = proof else {
            panic!("expected a proof, got {proof:?}");
        };
        Witness {
            goals: goals.to_vec(),
            answer,
            steps: Arc::new(steps),
        }
    }

    fn constraints(w: &World) -> &[SubtypeConstraint] {
        w.cs.as_set().constraints()
    }

    #[test]
    fn ground_membership_witness_validates() {
        let w = world();
        let goals = vec![(Term::constant(w.nat), w.num(3))];
        let wit = witness_of(&w, &goals);
        assert!(!wit.steps.is_empty(), "a real chain was recorded");
        validate_in(&w.sig, constraints(&w), &wit).expect("valid witness");
    }

    #[test]
    fn polymorphic_conjunction_witness_validates() {
        let mut w = world();
        let a = w.gen.fresh();
        let goals = vec![
            (
                Term::app(w.list, vec![Term::Var(a)]),
                w.list_of(&[w.num(0)]),
            ),
            (Term::constant(w.int), w.num(-2)),
        ];
        let wit = witness_of(&w, &goals);
        validate_in(&w.sig, constraints(&w), &wit).expect("valid witness");
    }

    #[test]
    fn truncated_chain_is_rejected_as_incomplete() {
        let w = world();
        let goals = vec![(Term::constant(w.nat), w.num(2))];
        let mut wit = witness_of(&w, &goals);
        let mut steps = (*wit.steps).clone();
        steps.pop();
        wit.steps = Arc::new(steps);
        let err = validate_in(&w.sig, constraints(&w), &wit).unwrap_err();
        assert!(
            matches!(err, WitnessError::IncompleteChain { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn swapped_constraint_index_is_rejected() {
        let w = world();
        let goals = vec![(Term::constant(w.nat), w.num(1))];
        let mut wit = witness_of(&w, &goals);
        let mut steps = (*wit.steps).clone();
        let target = steps
            .iter()
            .position(|s| matches!(s, Step::Constraint(_)))
            .expect("chain applies a constraint");
        // Point the step at the elist >= nil constraint instead: its ctor
        // cannot match a nat goal.
        let elist_idx = constraints(&w)
            .iter()
            .position(|c| c.ctor() == w.elist)
            .expect("elist constraint exists");
        steps[target] = Step::Constraint(elist_idx);
        wit.steps = Arc::new(steps);
        let err = validate_in(&w.sig, constraints(&w), &wit).unwrap_err();
        assert!(
            matches!(err, WitnessError::ConstraintMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn out_of_range_constraint_index_is_rejected() {
        let w = world();
        let goals = vec![(Term::constant(w.nat), w.num(1))];
        let mut wit = witness_of(&w, &goals);
        let mut steps = (*wit.steps).clone();
        let target = steps
            .iter()
            .position(|s| matches!(s, Step::Constraint(_)))
            .expect("chain applies a constraint");
        steps[target] = Step::Constraint(constraints(&w).len());
        wit.steps = Arc::new(steps);
        let err = validate_in(&w.sig, constraints(&w), &wit).unwrap_err();
        assert!(
            matches!(err, WitnessError::ConstraintOutOfRange { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn botched_substitution_is_rejected() {
        let mut w = world();
        let a = w.gen.fresh();
        let goals = vec![(
            Term::app(w.list, vec![Term::Var(a)]),
            w.list_of(&[w.num(0)]),
        )];
        let mut wit = witness_of(&w, &goals);
        assert!(wit.answer.binds(a), "the answer instantiates A");
        // Re-bind the goal variable to an unrelated type: the chain's Refl
        // and Decompose checks no longer line up.
        let mut bindings: Vec<(lp_term::Var, Term)> = wit
            .answer
            .iter()
            .map(|(v, t)| (v, t.clone()))
            .filter(|(v, _)| *v != a)
            .collect();
        bindings.push((a, Term::constant(w.elist)));
        wit.answer = Subst::from_bindings(bindings);
        let err = validate_in(&w.sig, constraints(&w), &wit).unwrap_err();
        assert!(
            matches!(
                err,
                WitnessError::ReflMismatch { .. }
                    | WitnessError::NotDecomposable { .. }
                    | WitnessError::ConstraintMismatch { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn trailing_steps_are_rejected() {
        let w = world();
        let goals = vec![(Term::constant(w.nat), w.num(0))];
        let mut wit = witness_of(&w, &goals);
        let mut steps = (*wit.steps).clone();
        steps.push(Step::Refl);
        wit.steps = Arc::new(steps);
        let err = validate_in(&w.sig, constraints(&w), &wit).unwrap_err();
        assert!(
            matches!(err, WitnessError::TrailingSteps { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn shrink_core_is_one_minimal_on_a_decisive_conjunction() {
        let w = world();
        let p = Prover::new(&w.sig, &w.cs);
        // nat >= 0 (provable), nat >= pred(0) (refutable), int >= 0
        // (provable): the core must be exactly the middle goal.
        let goals = vec![
            (Term::constant(w.nat), w.num(0)),
            (Term::constant(w.nat), w.num(-1)),
            (Term::constant(w.int), w.num(0)),
        ];
        assert!(p.subtype_all(&goals).is_refuted());
        let core = shrink_core(&goals, |subset| p.subtype_all(subset).is_refuted());
        assert_eq!(core, vec![1]);
        // 1-minimality: dropping the core member leaves a provable rest.
        let rest: Vec<_> = goals
            .iter()
            .enumerate()
            .filter(|(i, _)| !core.contains(i))
            .map(|(_, g)| g.clone())
            .collect();
        assert!(p.subtype_all(&rest).is_proved());
    }

    #[test]
    fn shrink_core_keeps_jointly_unsatisfiable_pairs() {
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        // A >= nil and A >= 0 are each satisfiable but A must then admit
        // both; that is satisfiable through the union, so force a clash on
        // a rigid variable instead: rigid R with nat >= R and elist >= R.
        let r = w.gen.fresh();
        let rigid: std::collections::BTreeSet<_> = [r].into_iter().collect();
        let goals = vec![
            (Term::constant(w.nat), Term::Var(r)),
            (Term::constant(w.elist), Term::Var(r)),
        ];
        let watermark = w.gen.watermark();
        assert!(p.subtype_all_rigid(&goals, &rigid, watermark).is_refuted());
        let core = shrink_core(&goals, |subset| {
            p.subtype_all_rigid(subset, &rigid, watermark).is_refuted()
        });
        // Each goal alone is refuted too (a rigid variable only derives from
        // constraint bodies reaching it), so greedy shrinking keeps one.
        assert_eq!(core.len(), 1);
    }
}
