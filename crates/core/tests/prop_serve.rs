//! Fault-tolerance properties of the serve daemon: a session subjected to
//! injected panics, shedding, forced budget exhaustion and forced
//! deadlines answers every request (the process never dies, the table never
//! wedges) and, once the client retries past the faults, produces check
//! verdicts byte-identical to a fresh serial session over the same
//! program — and to an untabled check of it. A fixed golden fault session
//! is also replayed under `--jobs 1` and `--jobs 4` and must produce
//! byte-identical response streams.

use proptest::prelude::*;

use subtype_core::obs::json::JsonValue;
use subtype_core::obs::FaultPlan;
use subtype_core::serve::{ServeConfig, ServeSession};
use subtype_core::{ConstraintSet, ParallelChecker, PredTypeTable};

/// Polymorphic append (the paper's running example): checking it commits
/// rigid subtype goals, so the warm proof table actually fills up.
const APP: &str = "FUNC 0, succ, nil, cons. \
                   TYPE nat, elist, nelist, list. \
                   nat >= 0 + succ(nat). elist >= nil. \
                   nelist(A) >= cons(A, list(A)). \
                   list(A) >= elist + nelist(A). \
                   PRED app(list(A), list(A), list(A)). \
                   app(nil, L, L). \
                   app(cons(X, L), M, cons(X, N)) :- app(L, M, N). \
                   :- app(cons(0, nil), cons(succ(0), nil), Z).";

fn load_line(src: &str) -> String {
    JsonValue::Obj(vec![
        ("op".to_owned(), JsonValue::Str("load".to_owned())),
        ("source".to_owned(), JsonValue::Str(src.to_owned())),
    ])
    .render()
}

fn delta_line(src: &str) -> String {
    JsonValue::Obj(vec![
        ("op".to_owned(), JsonValue::Str("delta".to_owned())),
        ("source".to_owned(), JsonValue::Str(src.to_owned())),
    ])
    .render()
}

fn status(resp: &str) -> String {
    JsonValue::parse(resp)
        .expect("responses are valid JSON")
        .get("status")
        .and_then(|v| v.as_str())
        .expect("responses carry a status")
        .to_owned()
}

/// A response with its `seq` field dropped, so sessions that spent a
/// different number of requests on retries can still be compared
/// byte-for-byte on everything that matters.
fn modulo_seq(resp: &str) -> String {
    let JsonValue::Obj(fields) = JsonValue::parse(resp).expect("valid JSON") else {
        panic!("responses are objects");
    };
    JsonValue::Obj(fields.into_iter().filter(|(k, _)| k != "seq").collect()).render()
}

/// The `verdicts` array of a check response, one error message (or `None`)
/// per clause then per query.
fn verdicts(resp: &str) -> Vec<Option<String>> {
    let parsed = JsonValue::parse(resp).expect("valid JSON");
    let Some(JsonValue::Arr(items)) = parsed.get("verdicts") else {
        panic!("a check response carries verdicts: {resp}");
    };
    items
        .iter()
        .map(|v| v.get("error").and_then(|e| e.as_str()).map(str::to_owned))
        .collect()
}

/// The same verdicts from an untabled check of `src` outside any session.
fn untabled_verdicts(src: &str) -> Vec<Option<String>> {
    let module = lp_parser::parse_module(src).expect("generated program parses");
    let checked = ConstraintSet::from_module(&module)
        .and_then(|cs| cs.checked(&module.sig))
        .expect("valid declarations");
    let preds = PredTypeTable::from_module(&module).expect("pred types valid");
    let checker = ParallelChecker::new(&module.sig, &checked, &preds, 1);
    let clauses: Vec<_> = module.clauses.iter().map(|c| &c.clause).collect();
    let queries: Vec<&[lp_term::Term]> = module.queries.iter().map(|q| &q.goals[..]).collect();
    let mut out = vec![None; clauses.len() + queries.len()];
    for (i, e) in checker.check_program(&clauses).err().unwrap_or_default() {
        out[i] = Some(e.to_string());
    }
    for (i, e) in checker.check_queries(&queries).err().unwrap_or_default() {
        out[clauses.len() + i] = Some(e.to_string());
    }
    out
}

/// Runs `body` with the default panic hook silenced (injected panics are
/// contained by the session; their backtraces would only pollute test
/// output), restoring it afterwards.
fn with_quiet_panics<T>(body: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = body();
    std::panic::set_hook(hook);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property: for generated programs, a session whose
    /// table is shared by `jobs` workers and hit by every fault kind still
    /// converges — after client retries — to the same check response a
    /// fresh serial session produces, and to the verdicts of an untabled
    /// check.
    #[test]
    fn faulted_session_after_retries_matches_fresh_serial_check(
        n in 1usize..6,
        jobs in 1usize..5,
        plan in prop_oneof![
            Just("panic@2"),
            Just("exhaust@2,slow@3"),
            Just("shed@2,panic@3"),
            Just("slow@2,shed@3,exhaust@4,panic@5"),
        ],
    ) {
        let src = lp_gen::programs::pipeline(n, 2);
        let faulted = with_quiet_panics(|| {
            let mut s = ServeSession::new(ServeConfig {
                jobs,
                faults: FaultPlan::parse(plan).unwrap(),
                ..ServeConfig::default()
            });
            assert_eq!(status(&s.handle_line(&load_line(&src))), "ok");
            // Retry until the faults are exhausted; the plan's last entry
            // is at seq 5, so 6 attempts always suffice.
            let mut ok = None;
            for _ in 0..6 {
                let r = s.handle_line(r#"{"op":"check"}"#);
                match status(&r).as_str() {
                    "ok" => {
                        ok = Some(r);
                        break;
                    }
                    s @ ("shed" | "panic" | "deadline" | "budget") => {
                        let parsed = JsonValue::parse(&r).unwrap();
                        assert!(
                            parsed.get("retry_after").is_some(),
                            "degraded status {s} must carry a retry hint: {r}"
                        );
                    }
                    other => panic!("unexpected status {other}: {r}"),
                }
            }
            ok.expect("session recovers once the fault plan is spent")
        });
        let mut fresh = ServeSession::new(ServeConfig::default());
        prop_assert_eq!(status(&fresh.handle_line(&load_line(&src))), "ok");
        let fresh_check = fresh.handle_line(r#"{"op":"check"}"#);
        prop_assert_eq!(modulo_seq(&faulted), modulo_seq(&fresh_check));
        prop_assert_eq!(verdicts(&fresh_check), untabled_verdicts(&src));
    }
}

/// A delta that rewires a ground subtype edge must flip the verdict of a
/// clause it covered: the precomputed ground closure may only survive a
/// delta that provably cannot change it, so `b >= f0` → `b >= f1` forces
/// a rebuild even though the signature is a prefix and the warm table
/// rescopes. A stale adopted closure would keep accepting `p(f0)`.
#[test]
fn ground_edge_delta_never_serves_a_stale_closure_verdict() {
    let before = "FUNC f0, f1. TYPE a, b. a >= b. b >= f0. PRED p(a). p(f0).";
    let after = "FUNC f0, f1. TYPE a, b. a >= b. b >= f1. PRED p(a). p(f0).";
    for jobs in [1usize, 4] {
        let mut s = ServeSession::new(ServeConfig {
            jobs,
            ..ServeConfig::default()
        });
        assert_eq!(status(&s.handle_line(&load_line(before))), "ok");
        let warm = JsonValue::parse(&s.handle_line(r#"{"op":"check"}"#)).unwrap();
        assert_eq!(warm.get("errors").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(status(&s.handle_line(&delta_line(after))), "ok");
        let cold = JsonValue::parse(&s.handle_line(r#"{"op":"check"}"#)).unwrap();
        assert_eq!(
            cold.get("errors").and_then(|v| v.as_u64()),
            Some(1),
            "jobs={jobs}: the rewired edge must reject p(f0)"
        );
    }
}

/// The golden fault session from the issue: inject → shed → retry →
/// recover, including a delta that keeps the warm table. The full
/// response stream (seq numbers and all) must be byte-identical under
/// one worker and four — parallelism must be unobservable.
#[test]
fn golden_fault_session_is_identical_under_one_and_four_jobs() {
    let extended = format!("{APP} app(nil, nil, nil).");
    let requests: Vec<String> = vec![
        load_line(APP),                    // 1: ok
        r#"{"op":"check","id":1}"#.into(), // 2: ok (warms the table)
        r#"{"op":"check","id":2}"#.into(), // 3: panic (poisons the table)
        r#"{"op":"check","id":2}"#.into(), // 4: shed
        r#"{"op":"check","id":2}"#.into(), // 5: ok (retry recovers)
        r#"{"op":"check","id":3}"#.into(), // 6: budget (forced)
        r#"{"op":"check","id":3}"#.into(), // 7: deadline (forced slow)
        delta_line(&extended),             // 8: ok, reused > 0
        r#"{"op":"check","id":4}"#.into(), // 9: ok over the new program
        r#"{"op":"stats"}"#.into(),        // 10: serve counters
        r#"{"op":"shutdown"}"#.into(),     // 11: ok
    ];
    let run = |jobs: usize| -> Vec<String> {
        with_quiet_panics(|| {
            let mut s = ServeSession::new(ServeConfig {
                jobs,
                faults: FaultPlan::parse("panic@3,shed@4,exhaust@6,slow@7").unwrap(),
                ..ServeConfig::default()
            });
            requests.iter().map(|r| s.handle_line(r)).collect()
        })
    };
    let serial = run(1);
    let statuses: Vec<String> = serial.iter().map(|r| status(r)).collect();
    assert_eq!(
        statuses,
        ["ok", "ok", "panic", "shed", "ok", "budget", "deadline", "ok", "ok", "ok", "ok"],
        "golden script plays out as designed: {serial:#?}"
    );
    let delta = JsonValue::parse(&serial[7]).unwrap();
    assert!(
        delta.get("reused").and_then(|v| v.as_u64()).unwrap() > 0,
        "the delta keeps the warm table: {}",
        serial[7]
    );
    let parallel = run(4);
    assert_eq!(serial, parallel, "response streams diverge across --jobs");
}
