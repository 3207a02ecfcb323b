//! Traced in-process run of the `slp` benchmark.
//!
//! ```text
//! slp-layers gen SPEC
//! slp-layers exec REPORT PROGRAM [ARGS...]
//! slp-layers probe
//! slp-layers MANIFEST OUTPUTS SPANS SECONDS CLK_TCK FOCUS
//! ```
//!
//! `gen` writes the benchmark's input files with `lp_gen::programs`: one
//! tab-separated line per file in SPEC, `program  params  path`, where
//! `program` is `pipeline`, `pipeline_with_errors` or `nrev` and `params`
//! its comma-separated arguments.
//!
//! `exec` runs PROGRAM with this process's stdin, stdout and stderr and
//! writes `code peak_rss_kb nanoseconds` to REPORT: its exit code (minus
//! the signal number when a signal ended it), its peak RSS and its time
//! from spawn to exit. The benchmark starts every `slp` process this way
//! because a child's peak RSS also counts the pages it shared with its
//! parent at fork: started from the benchmark's Python process, it would
//! read at least that process's RSS. This process holds about 2 MB.
//!
//! `probe` does a fixed piece of work that calls no code of the program;
//! the benchmark times it, started through `exec` like `slp`, to read
//! the host's current speed.
//!
//! Otherwise, for every workload in MANIFEST (one tab-separated entry per
//! line: `workload  class  params  path`) this program calls the public
//! functions of each layer the `slp` command of that workload goes
//! through, in the order the command calls them, and records a span
//! (name, start, end, parent, request id) around each call. Where one
//! public function calls another layer internally (`lint_module_obs` ->
//! `welltyped`, `audit_query` -> `lp_engine` -> `welltyped`), the split
//! comes from the registry's own timers, read from `MetricsSnapshot`.
//! Nothing inside the program is instrumented.
//!
//! Each workload runs in rounds of one untraced and one traced pass; the
//! untraced pass gives the tracing overhead. Every workload gets one
//! round, and the FOCUS workload gets rounds for SECONDS. What every
//! operation answered goes to OUTPUTS (JSON lines,
//! checked against the benchmark's oracles by `run.py`), the spans of the
//! traced passes go to SPANS, and the last line of stdout is one JSON
//! object: workload -> per-layer metric -> value.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use subtype_lp::core::consistency::AuditConfig;
use subtype_lp::core::diag::{self, Diagnostic};
use subtype_lp::core::lint::{clause_check_diagnostic, lint_module_obs, LintOptions};
use subtype_lp::core::obs::json::escape;
use subtype_lp::core::{
    CheckedConstraints, Checker, ConstraintSet, Counter, GroundClosure, MetricsRegistry,
    MetricsSnapshot, ParallelChecker, PredTypeTable, ProofTable, ServeConfig, ServeSession,
    ShardedProofTable, Timer,
};
use subtype_lp::gen::programs;
use subtype_lp::parser::{parse_module, Module};
use subtype_lp::term::{Signature, Term};
use subtype_lp::TypedProgram;

/// Worker count of every parallel call, as `slp ... --jobs 2`.
const JOBS: usize = 2;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. A disabled tracer records nothing, which is
/// the untraced pass the overhead ratio compares against.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
        now - self.spans[i].start_ns
    }

    /// Self time of every span (duration minus its children's durations).
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Summed self time per span name, in ms.
    fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    fn write(&self, workload: &str, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":{},\"id\":{i},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                escape(workload),
                escape(s.name),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Names of the spans that wrap one whole request; their self time is the
/// benchmark's own bookkeeping between layer calls.
const REQUEST_SPAN: &str = "request";

// ---------------------------------------------------------------------------
// Inputs, outputs and measurements
// ---------------------------------------------------------------------------

struct Entry {
    index: usize,
    workload: String,
    class: String,
    params: Vec<usize>,
    path: String,
    source: String,
    /// The edit script of a `serve` entry.
    steps: Vec<ServeStep>,
}

/// One request of a serve edit script: a line
/// `class<TAB>op<TAB>units<TAB>source-file-or-"-"<TAB>request`, where
/// `units` is the clauses plus queries the program holds after the step.
struct ServeStep {
    class: String,
    op: String,
    units: u64,
    source: Option<String>,
    request: String,
}

fn read_script(text: &str) -> Result<Vec<ServeStep>, String> {
    let mut steps = Vec::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.splitn(5, '\t').collect();
        let [class, op, units, source, request] = cols[..] else {
            return Err(format!("serve script line `{line}`: expected 5 columns"));
        };
        let source = match source {
            "-" => None,
            file => Some(std::fs::read_to_string(file).map_err(io(file))?),
        };
        steps.push(ServeStep {
            class: class.into(),
            op: op.into(),
            units: units
                .parse()
                .map_err(|e| format!("serve script units: {e}"))?,
            source,
            request: request.into(),
        });
    }
    Ok(steps)
}

/// One operation's answer, in the shape the oracles read.
enum Answer {
    Process {
        code: u8,
        stdout: String,
        stderr: String,
    },
    Serve(String),
}

struct Output {
    entry: usize,
    step: usize,
    answer: Answer,
}

/// Measurements one workload accumulates over its traced passes.
#[derive(Default)]
struct Acc {
    /// Counter and timer deltas of the serial path.
    reg: Delta,
    lines: u64,
    nodes: u64,
    closure_ns: u64,
    /// Per-class (sum ns, count) of per-unit check cost.
    unit_cost: BTreeMap<String, (u64, u64)>,
    /// Per-clause check durations (ns) from `check_clause` spans.
    clause_ns: Vec<u64>,
    /// Checking time at jobs 1 and at jobs 2 (`par.speedup`).
    par_j1_ns: u64,
    par_j2_ns: u64,
    /// Process CPU ticks over a jobs-2 interval of `par_cpu_wall_ns`
    /// (`par.efficiency`).
    par_cpu_ticks: u64,
    par_cpu_wall_ns: u64,
    par: Delta,
    /// Per-class (render ns, diagnostics) of `diag` rendering.
    render: BTreeMap<String, (u64, u64)>,
    diag_ns: u64,
    engine: Delta,
    audit_ns: u64,
    resolvents: u64,
    serve: BTreeMap<&'static str, Vec<u64>>,
    deltas: u64,
    reused: u64,
    traced_ns: u64,
    untraced_ns: u64,
    /// Traced passes made.
    passes: u64,
}

/// Summed differences of registry snapshots.
#[derive(Default, Clone, Copy)]
struct Delta {
    counters: [u64; 9],
    timers: [u64; 7],
    calls: [u64; 7],
}

const COUNTERS: [Counter; 9] = [
    Counter::EngineSteps,
    Counter::SubtypeGoals,
    Counter::TableHits,
    Counter::TableMisses,
    Counter::ClosureHits,
    Counter::CmatchExpansions,
    Counter::ClauseChecks,
    Counter::QueryChecks,
    Counter::Steals,
];

impl Delta {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Delta {
        let mut d = Delta::default();
        for (i, c) in COUNTERS.iter().enumerate() {
            d.counters[i] = after.counter(*c) - before.counter(*c);
        }
        for (i, t) in Timer::ALL.iter().enumerate() {
            d.timers[i] = after.timer_nanos(*t) - before.timer_nanos(*t);
            d.calls[i] = after.timer_calls(*t) - before.timer_calls(*t);
        }
        d
    }

    fn add(&mut self, other: &Delta) {
        for i in 0..self.counters.len() {
            self.counters[i] += other.counters[i];
        }
        for i in 0..self.timers.len() {
            self.timers[i] += other.timers[i];
            self.calls[i] += other.calls[i];
        }
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[COUNTERS
            .iter()
            .position(|x| *x == c)
            .expect("tracked counter")]
    }

    fn timer_ns(&self, t: Timer) -> u64 {
        self.timers[Timer::ALL.iter().position(|x| *x == t).expect("timer")]
    }

    fn timer_ms(&self, t: Timer) -> f64 {
        self.timer_ns(t) as f64 / 1e6
    }

    fn timer_calls(&self, t: Timer) -> u64 {
        self.calls[Timer::ALL.iter().position(|x| *x == t).expect("timer")]
    }
}

/// Registry deltas of `f`'s work.
fn measured<R>(reg: &MetricsRegistry, f: impl FnOnce() -> R) -> (R, Delta) {
    let before = reg.snapshot();
    let out = f();
    (out, Delta::between(&before, &reg.snapshot()))
}

/// Process CPU time (user + system, all threads) in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 and 15 of proc(5); `after_comm` starts at field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    tick(11) + tick(12)
}

fn add_unit_cost(acc: &mut Acc, class: &str, ns: u64, units: u64) {
    let slot = acc.unit_cost.entry(class.to_string()).or_insert((0, 0));
    slot.0 += ns;
    slot.1 += units;
}

// ---------------------------------------------------------------------------
// Shared front half: parse, validate, closure
// ---------------------------------------------------------------------------

/// `parse_module`, in a span of its own.
fn parse(src: &str, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Result<Module, String> {
    tr.begin("lp_parser", req);
    let parsed = parse_module(src);
    tr.end();
    acc.lines += src.lines().count() as u64;
    parsed.map_err(|e| e.render(src))
}

/// Validation as `slp check` and `slp serve` do it:
/// `ConstraintSet::from_module` + `checked` + `PredTypeTable::from_module`.
fn validate(
    module: &Module,
    req: u64,
    tr: &mut Tracer,
) -> Result<(CheckedConstraints, PredTypeTable), String> {
    tr.begin("validate", req);
    let checked = ConstraintSet::from_module(module).and_then(|s| s.checked(&module.sig));
    let preds = PredTypeTable::from_module(module);
    tr.end();
    Ok((
        checked.map_err(|e| e.to_string())?,
        preds.map_err(|e| e.to_string())?,
    ))
}

/// `GroundClosure::build`, in a span of its own. `checked()` builds the
/// same closure inside validation, so this explicit build is what the
/// metrics subtract from the validation span.
fn closure(sig: &Signature, set: &ConstraintSet, req: u64, tr: &mut Tracer, acc: &mut Acc) {
    tr.begin("closure", req);
    let closure = GroundClosure::build(sig, set);
    acc.closure_ns += tr.end();
    acc.nodes = acc.nodes.max(closure.node_count() as u64);
}

/// Parse, validate and closure of `src`.
fn front(
    src: &str,
    req: u64,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<(Module, CheckedConstraints, PredTypeTable), String> {
    let module = parse(src, req, tr, acc)?;
    let (checked, preds) = validate(&module, req, tr)?;
    closure(&module.sig, checked.as_set(), req, tr, acc);
    Ok((module, checked, preds))
}

// ---------------------------------------------------------------------------
// Workload passes
// ---------------------------------------------------------------------------

/// `slp check --jobs 2 FILE`: per-clause Definition-16 checking, serially
/// with one span per clause, then through `ParallelChecker` at jobs 1 and 2.
fn check_entry(e: &Entry, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Output {
    tr.begin(REQUEST_SPAN, req);
    let answer = check_file(e, req, tr, acc).unwrap_or_else(process_error);
    tr.end();
    Output {
        entry: e.index,
        step: 0,
        answer,
    }
}

fn check_file(e: &Entry, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Result<Answer, String> {
    let (m, checked, preds) = front(&e.source, req, tr, acc)?;
    let clauses: Vec<_> = m.clauses.iter().map(|c| &c.clause).collect();

    let reg = MetricsRegistry::shared();
    let table = RefCell::new(ProofTable::with_metrics(reg.clone()));
    let checker = Checker::with_table(&m.sig, &checked, &preds, &table).with_obs(Some(&reg));
    let mut errors = Vec::new();
    let mut clause_total = 0;
    let (_, d) = measured(&reg, || {
        tr.begin("welltyped", req);
        for (i, c) in clauses.iter().enumerate() {
            tr.begin("welltyped.clause", req);
            let r = checker.check_clause(c);
            let ns = tr.end();
            acc.clause_ns.push(ns);
            clause_total += ns;
            if let Err(err) = r {
                errors.push((i, err));
            }
        }
        for q in &m.queries {
            tr.begin("welltyped.clause", req);
            let _ = checker.check_query(&q.goals);
            acc.clause_ns.push(tr.end());
        }
        tr.end();
    });
    acc.reg.add(&d);
    if e.class != "error" {
        add_unit_cost(acc, &e.class, clause_total, clauses.len() as u64);
    }

    for jobs in [1, JOBS] {
        let par_reg = MetricsRegistry::shared();
        let shared = ShardedProofTable::with_metrics(par_reg.clone());
        let pc = ParallelChecker::with_table(&m.sig, &checked, &preds, &shared, jobs)
            .with_obs(Some(&par_reg));
        let cpu0 = cpu_ticks();
        let (ns, d) = measured(&par_reg, || {
            tr.begin(if jobs == 1 { "par.jobs1" } else { "par.jobs2" }, req);
            let _ = pc.check_program(&clauses);
            tr.end()
        });
        if jobs == 1 {
            acc.par_j1_ns += ns;
        } else {
            acc.par_j2_ns += ns;
            acc.par_cpu_ticks += cpu_ticks() - cpu0;
            acc.par_cpu_wall_ns += ns;
            acc.par.add(&d);
        }
    }

    if errors.is_empty() {
        return Ok(Answer::Process {
            code: 0,
            stdout: format!(
                "well-typed: {} clause(s), {} query(ies)\n",
                m.clauses.len(),
                m.queries.len()
            ),
            stderr: String::new(),
        });
    }
    tr.begin("diag", req);
    let mut diags: Vec<Diagnostic> = errors
        .iter()
        .map(|(i, err)| clause_check_diagnostic(&m, *i, err))
        .collect();
    diag::sort(&mut diags);
    let stderr = diag::render_human_all(&diags, &e.source, &e.path);
    acc.diag_ns += tr.end();
    Ok(Answer::Process {
        code: 2,
        stdout: String::new(),
        stderr,
    })
}

/// `slp lint [--format json] FILE`: the lint passes, then rendering.
/// `lint_module_obs` validates internally; the explicit validation and
/// closure calls before it measure those layers on the same input.
fn lint_entry(e: &Entry, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Output {
    let json = e.params.first() == Some(&1);
    tr.begin(REQUEST_SPAN, req);
    let answer = match front(&e.source, req, tr, acc) {
        Err(msg) => process_error(msg),
        Ok((module, _, _)) => {
            let reg = MetricsRegistry::shared();
            let (diags, d) = measured(&reg, || {
                tr.begin("lint", req);
                let diags = lint_module_obs(&module, &LintOptions::default(), Some(&reg));
                tr.end();
                diags
            });
            acc.reg.add(&d);
            add_unit_cost(
                acc,
                &e.class,
                d.timer_ns(Timer::CheckClause),
                d.timer_calls(Timer::CheckClause),
            );
            tr.begin("diag", req);
            let stdout = if json {
                diag::render_json_all(&diags, &e.source, &e.path)
            } else {
                diag::render_human_all(&diags, &e.source, &e.path)
            };
            let ns = tr.end();
            acc.diag_ns += ns;
            let slot = acc.render.entry(e.class.clone()).or_insert((0, 0));
            slot.0 += ns;
            slot.1 += diags.len() as u64;
            let (errors, _) = diag::counts(&diags);
            Answer::Process {
                code: if errors > 0 { 2 } else { 0 },
                stdout,
                stderr: String::new(),
            }
        }
    };
    tr.end();
    Output {
        entry: e.index,
        step: 0,
        answer,
    }
}

/// `slp audit FILE -n 1 --jobs 2`: validation through `TypedProgram` (as
/// the command does), the clause-parallel check, then the Theorem-6
/// audited run of query 0.
fn audit_entry(e: &Entry, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Output {
    tr.begin(REQUEST_SPAN, req);
    let answer = audit_file(e, req, tr, acc).unwrap_or_else(process_error);
    tr.end();
    Output {
        entry: e.index,
        step: 0,
        answer,
    }
}

fn audit_file(e: &Entry, req: u64, tr: &mut Tracer, acc: &mut Acc) -> Result<Answer, String> {
    let module = parse(&e.source, req, tr, acc)?;
    let reg = MetricsRegistry::shared();
    tr.begin("validate", req);
    let program = TypedProgram::from_module_with_metrics(module, reg.clone());
    tr.end();
    let program = program.map_err(|err| err.to_string())?;
    closure(
        &program.module().sig,
        program.constraints().as_set(),
        req,
        tr,
        acc,
    );
    let (ok, d) = measured(&reg, || {
        tr.begin("welltyped", req);
        let shared = ShardedProofTable::with_metrics(reg.clone());
        let ok = program.check_clauses_parallel(Some(&shared), JOBS).is_ok()
            && program.check_queries_parallel(Some(&shared), JOBS).is_ok();
        tr.end();
        ok
    });
    acc.reg.add(&d);
    if !ok {
        return Err("nrev program is ill-typed".into());
    }
    let (report, d) = measured(&reg, || {
        tr.begin("consistency", req);
        let report = program.audit_query(
            0,
            AuditConfig {
                max_solutions: 1,
                ..AuditConfig::default()
            },
        );
        acc.audit_ns += tr.end();
        report
    });
    acc.reg.add(&d);
    acc.engine.add(&d);
    acc.resolvents += report.resolvents_checked;
    add_unit_cost(
        acc,
        &e.class,
        d.timer_ns(Timer::CheckQuery),
        d.timer_calls(Timer::CheckQuery),
    );
    let mut stdout = String::new();
    for sol in &report.solutions {
        stdout.push_str(&solution_line(&program, sol));
        stdout.push('\n');
    }
    stdout.push_str(&format!(
        "audited {} resolvent(s): {} violation(s), answers {}\n",
        report.resolvents_checked,
        report.violations.len(),
        if report.answers_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    ));
    Ok(Answer::Process {
        code: if report.is_clean() { 0 } else { 2 },
        stdout,
        stderr: String::new(),
    })
}

/// One answer of query 0 in `slp run`/`slp audit` format.
fn solution_line(program: &TypedProgram, sol: &subtype_lp::engine::Solution) -> String {
    let q = &program.module().queries[0];
    let mut parts = Vec::new();
    for (v, name) in q.hints.iter() {
        let value = sol.answer.resolve(&Term::Var(v));
        let shown = program.display_with(&value, &q.hints).to_string();
        if shown != name {
            parts.push(format!("{name} = {shown}"));
        }
    }
    parts.sort();
    if parts.is_empty() {
        "yes.".to_string()
    } else {
        format!("{}.", parts.join(", "))
    }
}

/// `slp serve --stdio --jobs N`: replays the edit script through
/// `ServeSession::handle_line`, one span per request. The sources of
/// `load` and `delta` requests also go through the explicit front half,
/// so parse, validation and closure costs show as layers of their own.
/// Returns the summed `handle_line` time in ns.
fn serve_entry(
    e: &Entry,
    jobs: usize,
    tr: &mut Tracer,
    acc: &mut Acc,
    outputs: &mut Vec<Output>,
) -> u64 {
    let reg = MetricsRegistry::shared();
    let mut session = ServeSession::with_metrics(
        ServeConfig {
            jobs,
            ..ServeConfig::default()
        },
        reg.clone(),
    );
    let before = reg.snapshot();
    let cpu0 = cpu_ticks();
    let started = Instant::now();
    let mut handle_ns = 0;
    let mut delta_ns = 0;
    for (step, s) in e.steps.iter().enumerate() {
        let req = step as u64 + 1;
        tr.begin(REQUEST_SPAN, req);
        if let Some(src) = &s.source {
            let _ = front(src, req, tr, acc);
        }
        let name = match s.op.as_str() {
            "load" => "serve.load",
            "delta" => "serve.delta",
            _ => "serve.check",
        };
        tr.begin(name, req);
        let t = Instant::now();
        let response = session.handle_line(&s.request);
        let ns = t.elapsed().as_nanos() as u64;
        tr.end();
        tr.end();
        handle_ns += ns;
        acc.serve.entry(name).or_default().push(ns);
        match s.op.as_str() {
            "delta" => {
                acc.deltas += 1;
                delta_ns = ns;
            }
            "check" => add_unit_cost(acc, &s.class, delta_ns + ns, s.units),
            _ => {}
        }
        outputs.push(Output {
            entry: e.index,
            step,
            answer: Answer::Serve(response),
        });
    }
    let after = reg.snapshot();
    let d = Delta::between(&before, &after);
    acc.reg.add(&d);
    acc.par.add(&d);
    acc.reused +=
        after.counter(Counter::IncrementalReuse) - before.counter(Counter::IncrementalReuse);
    acc.par_cpu_ticks += cpu_ticks() - cpu0;
    acc.par_cpu_wall_ns += started.elapsed().as_nanos() as u64;
    handle_ns
}

fn process_error(msg: String) -> Answer {
    Answer::Process {
        code: 2,
        stdout: String::new(),
        stderr: msg,
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `values` (ns), in ns.
fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean per-unit check cost of the large class over the small one.
fn growth(acc: &Acc) -> f64 {
    let mean = |c: &str| {
        acc.unit_cost
            .get(c)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64, *n as f64))
    };
    ratio(mean("large"), mean("small"))
}

/// The per-layer metrics of one workload. Only the metrics that apply to
/// the workload's command are produced; the rest are n/a (see README.md).
fn metrics(
    workload: &str,
    acc: &Acc,
    self_ms: &BTreeMap<&'static str, f64>,
    clk_tck: f64,
) -> BTreeMap<&'static str, f64> {
    let r = &acc.reg;
    let span = |n: &str| self_ms.get(n).copied().unwrap_or(0.0);
    let parse_ms = span("lp_parser");
    let closure_ms = acc.closure_ns as f64 / 1e6;
    let check_ms = r.timer_ms(Timer::CheckClause) + r.timer_ms(Timer::CheckQuery);
    let prove_ms = r.timer_ms(Timer::SubtypeProve);
    let checks = r.counter(Counter::ClauseChecks) + r.counter(Counter::QueryChecks);
    let hits = r.counter(Counter::TableHits) as f64;
    let lookups = hits + r.counter(Counter::TableMisses) as f64;
    let par_efficiency = ratio(
        acc.par_cpu_ticks as f64 / clk_tck,
        JOBS as f64 * acc.par_cpu_wall_ns as f64 / 1e9,
    );
    let mut m = BTreeMap::new();
    m.insert("lp_parser.self_ms", parse_ms);
    m.insert(
        "lp_parser.lines_per_s",
        ratio(acc.lines as f64, parse_ms / 1e3),
    );
    m.insert("validate.self_ms", (span("validate") - closure_ms).max(0.0));
    m.insert("closure.build_ms", closure_ms);
    m.insert("closure.nodes", acc.nodes as f64);
    m.insert("welltyped.self_ms", (check_ms - prove_ms).max(0.0));
    m.insert("welltyped.growth", growth(acc));
    m.insert(
        "cmatch.expansions_per_clause",
        ratio(r.counter(Counter::CmatchExpansions) as f64, checks as f64),
    );
    m.insert("prover.goals", r.counter(Counter::SubtypeGoals) as f64);
    m.insert("prover.self_ms", prove_ms);
    m.insert("closure.decided", r.counter(Counter::ClosureHits) as f64);
    match workload {
        "check_corpus" => {
            m.insert(
                "welltyped.clause_p50_us",
                percentile(&acc.clause_ns, 0.5) / 1e3,
            );
            m.insert(
                "welltyped.clause_p99_us",
                percentile(&acc.clause_ns, 0.99) / 1e3,
            );
            m.insert(
                "par.speedup",
                ratio(acc.par_j1_ns as f64, acc.par_j2_ns as f64),
            );
            m.insert("par.efficiency", par_efficiency);
            m.insert("par.steals", acc.par.counter(Counter::Steals) as f64);
            m.insert("diag.render_ms", acc.diag_ns as f64 / 1e6);
        }
        "lint_corpus" => {
            m.insert(
                "lint.self_ms",
                (r.timer_ms(Timer::Lint) - check_ms).max(0.0),
            );
            let diagnostics: u64 = acc.render.values().map(|(_, n)| *n).sum();
            m.insert("lint.diagnostics", diagnostics as f64);
            m.insert("diag.render_ms", acc.diag_ns as f64 / 1e6);
            let per_diag = |class: &str| {
                let (ns, n) = acc.render.get(class).copied().unwrap_or((0, 0));
                ratio(ns as f64 / 1e3, n as f64)
            };
            m.insert("diag.us_per_diagnostic_small", per_diag("small"));
            m.insert("diag.us_per_diagnostic_large", per_diag("large"));
        }
        "audit_nrev" => {
            let e = &acc.engine;
            let engine_ms =
                (e.timer_ms(Timer::EngineSolve) - e.timer_ms(Timer::CheckQuery)).max(0.0);
            let steps = e.counter(Counter::EngineSteps) as f64;
            m.insert("table.hit_ratio", ratio(hits, lookups));
            m.insert("lp_engine.self_ms", engine_ms);
            m.insert("lp_engine.steps", steps);
            m.insert("lp_engine.us_per_step", ratio(engine_ms * 1e3, steps));
            m.insert(
                "consistency.us_per_resolvent",
                ratio(acc.audit_ns as f64 / 1e3, acc.resolvents as f64),
            );
        }
        "serve_edits" => {
            let ms = |name: &str, p: f64| {
                percentile(acc.serve.get(name).map_or(&[][..], |v| v), p) / 1e6
            };
            m.insert("table.hit_ratio", ratio(hits, lookups));
            m.insert(
                "par.speedup",
                ratio(acc.par_j1_ns as f64, acc.par_j2_ns as f64),
            );
            m.insert("par.efficiency", par_efficiency);
            m.insert("par.steals", acc.par.counter(Counter::Steals) as f64);
            m.insert("serve.load_ms", ms("serve.load", 0.5));
            m.insert("serve.delta_p50_ms", ms("serve.delta", 0.5));
            m.insert("serve.delta_p99_ms", ms("serve.delta", 0.99));
            m.insert("serve.check_p50_ms", ms("serve.check", 0.5));
            m.insert("serve.check_p99_ms", ms("serve.check", 0.99));
            m.insert(
                "serve.reused_per_delta",
                ratio(acc.reused as f64, acc.deltas as f64),
            );
        }
        _ => {}
    }
    let covered: f64 = self_ms.values().sum::<f64>() - span(REQUEST_SPAN);
    m.insert(
        "unattributed_ms",
        (acc.traced_ns as f64 / 1e6 - covered).max(0.0),
    );
    m.insert(
        "trace_overhead_ratio",
        ratio(acc.traced_ns as f64, acc.untraced_ns as f64),
    );
    for name in PER_PASS {
        if let Some(v) = m.get_mut(name) {
            *v /= acc.passes.max(1) as f64;
        }
    }
    m
}

/// Totals reported per traced pass, so that they do not depend on how
/// many passes fit in the run.
const PER_PASS: [&str; 14] = [
    "lp_parser.self_ms",
    "validate.self_ms",
    "closure.build_ms",
    "welltyped.self_ms",
    "prover.self_ms",
    "prover.goals",
    "closure.decided",
    "par.steals",
    "lint.self_ms",
    "lint.diagnostics",
    "diag.render_ms",
    "lp_engine.self_ms",
    "lp_engine.steps",
    "unattributed_ms",
];

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn read_manifest(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut entries = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let cols: Vec<&str> = line.split('\t').collect();
        let [workload, class, params, file] = cols[..] else {
            return Err(format!(
                "{path}:{}: expected 4 tab-separated columns",
                index + 1
            ));
        };
        let params = numbers(params).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
        let source = std::fs::read_to_string(file).map_err(io(file))?;
        let steps = if workload == "serve_edits" {
            read_script(&source)?
        } else {
            Vec::new()
        };
        entries.push(Entry {
            index,
            workload: workload.into(),
            class: class.into(),
            params,
            path: file.into(),
            source,
            steps,
        });
    }
    Ok(entries)
}

/// A comma-separated list of numbers (empty for none).
fn numbers(list: &str) -> Result<Vec<usize>, std::num::ParseIntError> {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(str::parse)
        .collect()
}

/// `slp-layers gen SPEC`: writes every file SPEC names with the
/// `lp_gen::programs` function and arguments it names.
fn gen(spec: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(spec).map_err(io(spec))?;
    for (index, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{spec}:{}: {msg}", index + 1);
        let cols: Vec<&str> = line.split('\t').collect();
        let [program, params, file] = cols[..] else {
            return Err(at("expected 3 tab-separated columns".into()));
        };
        let params = numbers(params).map_err(|e| at(e.to_string()))?;
        let source = match (program, params.as_slice()) {
            ("pipeline", [n, k]) => programs::pipeline(*n, *k),
            ("pipeline_with_errors", [n, k, errors]) => {
                programs::pipeline_with_errors(*n, *k, *errors)
            }
            ("nrev", [n]) => programs::nrev(*n),
            _ => return Err(at(format!("no generator `{program}({params:?})`"))),
        };
        std::fs::write(file, source).map_err(io(file))?;
    }
    Ok(())
}

/// `struct rusage` of 64-bit Linux: two `struct timeval`s, then 14 longs
/// of which `ru_maxrss` (kB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_CHILDREN`: the waited-for children of this process.
const RUSAGE_CHILDREN: i32 = -1;

/// `slp-layers exec REPORT PROGRAM ARGS...` (see the crate docs).
fn exec(report: &str, program: &str, args: &[String]) -> Result<(), String> {
    use std::os::unix::process::ExitStatusExt as _;
    let started = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
    let ns = started.elapsed().as_nanos();
    let code = status
        .code()
        .unwrap_or_else(|| -status.signal().unwrap_or(0));
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    std::fs::write(report, format!("{code} {} {ns}\n", usage.maxrss)).map_err(io(report))
}

/// `slp-layers probe`: a fixed piece of work that calls no code of the
/// program: many small allocations, an ordered map, hashing and a deep
/// copy, as a symbolic checker does. The benchmark times it after every
/// `slp` process of a run to read the host's current speed.
fn probe() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut lists: Vec<Vec<u64>> = Vec::new();
    for i in 0..4_000u64 {
        let r = next();
        map.insert(r % 3_001, i);
        lists.push((0..r % 48).map(|j| j ^ r).collect());
    }
    let copy = lists.clone();
    let mut seen = std::collections::HashSet::new();
    let mut sum = 0u64;
    for l in &copy {
        sum = sum.wrapping_add(l.iter().sum::<u64>());
        seen.insert(l.len());
    }
    for (k, v) in &map {
        sum = sum.wrapping_add(k ^ v);
    }
    println!("{sum} {}", seen.len());
}

/// One pass over a workload's entries; returns its wall time in ns.
fn pass(entries: &[&Entry], tr: &mut Tracer, acc: &mut Acc, outputs: &mut Vec<Output>) -> u64 {
    let started = Instant::now();
    for (req, e) in entries.iter().enumerate() {
        let req = req as u64 + 1;
        let out = match e.workload.as_str() {
            "check_corpus" => check_entry(e, req, tr, acc),
            "lint_corpus" => lint_entry(e, req, tr, acc),
            "audit_nrev" => audit_entry(e, req, tr, acc),
            "serve_edits" => {
                acc.par_j2_ns += serve_entry(e, JOBS, tr, acc, outputs);
                continue;
            }
            other => Output {
                entry: e.index,
                step: 0,
                answer: process_error(format!("unknown workload `{other}`")),
            },
        };
        outputs.push(out);
    }
    started.elapsed().as_nanos() as u64
}

/// Rounds of (untraced pass, traced pass) over one workload, at least one
/// and more until `share` seconds are used; returns its per-layer metrics.
fn workload(
    w: &str,
    mine: &[&Entry],
    share: f64,
    clk_tck: f64,
    outputs: &mut Vec<Output>,
    spans: &mut impl std::io::Write,
) -> std::io::Result<BTreeMap<&'static str, f64>> {
    let t0 = Instant::now();
    let mut acc = Acc::default();
    let mut traced = Tracer::new(true, t0);
    loop {
        // The untraced pass goes first, so the traced pass meets caches at
        // least as warm as the untraced one did.
        let mut quiet = Tracer::new(false, t0);
        acc.untraced_ns += pass(mine, &mut quiet, &mut Acc::default(), &mut Vec::new());
        if w == "serve_edits" {
            // The jobs-1 side of `par.speedup`; the jobs-2 side is the
            // traced pass's handle_line time (one span per request).
            for e in mine {
                acc.par_j1_ns +=
                    serve_entry(e, 1, &mut quiet, &mut Acc::default(), &mut Vec::new());
            }
        }
        let wall = pass(mine, &mut traced, &mut acc, outputs);
        acc.traced_ns += wall;
        acc.passes += 1;
        if t0.elapsed().as_secs_f64() >= share {
            break;
        }
    }
    traced.write(w, spans)?;
    Ok(metrics(w, &acc, &traced.self_ms_by_name(), clk_tck))
}

/// Maps an I/O error on `path` to this program's error message.
fn io(path: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{path}: {e}")
}

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [mode] if mode == "probe" => {
            probe();
            return Ok(());
        }
        [mode, spec] if mode == "gen" => return gen(spec),
        [mode, report, program, rest @ ..] if mode == "exec" => return exec(report, program, rest),
        _ => {}
    }
    let [manifest, outputs_path, spans_path, seconds, clk_tck, focus] = args else {
        return Err(
            "usage: slp-layers gen SPEC | slp-layers exec REPORT PROGRAM [ARGS...] \
             | slp-layers probe | slp-layers MANIFEST OUTPUTS SPANS SECONDS CLK_TCK FOCUS"
                .into(),
        );
    };
    let seconds: f64 = seconds.parse().map_err(|e| format!("SECONDS: {e}"))?;
    let clk_tck: f64 = clk_tck.parse().map_err(|e| format!("CLK_TCK: {e}"))?;
    let entries = read_manifest(manifest)?;
    let mut names: Vec<&str> = entries.iter().map(|e| e.workload.as_str()).collect();
    names.dedup();
    if !names.contains(&focus.as_str()) {
        return Err(format!("FOCUS `{focus}` is not a workload of {manifest}"));
    }

    let mut outputs = Vec::new();
    let mut spans =
        std::io::BufWriter::new(std::fs::File::create(spans_path).map_err(io(spans_path))?);
    let mut all = BTreeMap::new();
    for w in &names {
        let mine: Vec<&Entry> = entries.iter().filter(|e| e.workload == *w).collect();
        let share = if w == focus { seconds } else { 0.0 };
        let m =
            workload(w, &mine, share, clk_tck, &mut outputs, &mut spans).map_err(io(spans_path))?;
        all.insert(*w, m);
    }
    spans.flush().map_err(io(spans_path))?;

    let mut out =
        std::io::BufWriter::new(std::fs::File::create(outputs_path).map_err(io(outputs_path))?);
    for o in &outputs {
        let body = match &o.answer {
            Answer::Process {
                code,
                stdout,
                stderr,
            } => format!(
                "\"code\":{code},\"stdout\":{},\"stderr\":{}",
                escape(stdout),
                escape(stderr)
            ),
            Answer::Serve(response) => format!("\"response\":{response}"),
        };
        writeln!(out, "{{\"entry\":{},\"step\":{},{body}}}", o.entry, o.step)
            .map_err(io(outputs_path))?;
    }
    out.flush().map_err(io(outputs_path))?;

    let body: Vec<String> = all
        .iter()
        .map(|(w, m)| {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{v}", escape(k)))
                .collect();
            format!("{}:{{{}}}", escape(w), fields.join(","))
        })
        .collect();
    println!("{{{}}}", body.join(","));
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("slp-layers: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}
