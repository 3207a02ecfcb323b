"""Seeded schedules and known-answer oracles for the `slp` benchmark.

The program files come from `lp_gen::programs` itself (written by
`slp-layers gen`, see run.py); this module only keeps what the benchmark
derives from the parameters it asked for: clause and diagnostic counts,
the list `nrev(n)` reverses, and the serve edit script with its expected
answers. No expected answer is taken from `slp`.

An oracle takes what one operation produced (exit code, stdout, stderr or
a serve response) and returns a list of mismatch strings; an empty list
means the operation was answered correctly.
"""

import json
import random
import re

K = 3  # recursive clauses per pipeline stage, as in `pipeline(n, 3)`

# Size classes (small, large) of each workload.
CHECK_SIZES = (256, 2048)
LINT_SIZES = (256, 1024)
NREV_SIZES = (12, 24)
SERVE_QUERIES = (448, 896)
SERVE_EDITS = 40  # delta+check pairs per serve episode
MAX_ERRORS = 4  # error clauses per `pipeline_with_errors` file: 1..=4


def input_specs(workload):
    """The generated files of a one-shot workload: class -> (lp_gen
    program, its parameters, the size n the oracles read, error count)."""
    if workload == "check_corpus":
        small, large = CHECK_SIZES
        specs = {"small": ("pipeline", (small, K), small, 0), "large": ("pipeline", (large, K), large, 0)}
        for e in range(1, MAX_ERRORS + 1):
            specs[f"error{e}"] = ("pipeline_with_errors", (small, K, e), small, e)
        return specs
    if workload == "lint_corpus":
        return {c: ("pipeline", (n, K), n, 0) for c, n in zip(("small", "large"), LINT_SIZES)}
    if workload == "audit_nrev":
        return {c: ("nrev", (n,), n, 0) for c, n in zip(("small", "large"), NREV_SIZES)}
    raise ValueError(f"no generated files for {workload}")


def nested(functor, depth):
    """`functor` applied `depth` times to 0."""
    return f"{functor}(" * depth + "0" + ")" * depth


def render_list(items):
    out = "nil"
    for item in reversed(items):
        out = f"cons({item}, {out})"
    return out


def nrev_list(n):
    """The list `lp_gen::programs::nrev(n)` reverses, front to back: it
    conses the numeral succ^(i mod 3)(0) onto the front for i = 0..n-1."""
    return [nested("succ", i % 3) for i in reversed(range(n))]


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------

DIAG_CODE = re.compile(r"^(?:error|warning)\[(\w+)\]", re.M)


def expect(cond, what, mismatches):
    if not cond:
        mismatches.append(what)


def check_oracle(spec, code, stdout, stderr):
    """`slp check`: pipeline(n,k) is well-typed, pipeline_with_errors(n,k,e)
    has exactly e E0201 errors and nothing else."""
    n, errors = spec["n"], spec["errors"]
    bad = []
    if errors == 0:
        want = f"well-typed: {n * (K + 1)} clause(s), 0 query(ies)\n"
        expect(code == 0, f"exit {code}, want 0", bad)
        expect(stdout == want, f"stdout {stdout[:120]!r}, want {want!r}", bad)
        expect(stderr == "", f"unexpected stderr {stderr[:120]!r}", bad)
    else:
        codes = DIAG_CODE.findall(stderr)
        expect(code == 2, f"exit {code}, want 2", bad)
        expect(stdout == "", f"unexpected stdout {stdout[:120]!r}", bad)
        expect(codes == ["E0201"] * errors, f"diagnostics {codes}, want {errors} x E0201", bad)
    return bad


def lint_warnings(n, k=K):
    """W0502 findings in pipeline(n,k): each stage's j-th recursive head is
    subsumed by every earlier, more general one: k(k-1)/2 per stage."""
    return n * k * (k - 1) // 2


def lint_oracle(spec, code, stdout, stderr):
    """`slp lint`: exactly n·k(k−1)/2 W0502 findings and no other code."""
    want = lint_warnings(spec["n"])
    bad = []
    expect(code == 0, f"exit {code}, want 0", bad)
    expect(stderr == "", f"unexpected stderr {stderr[:120]!r}", bad)
    if spec["json"]:
        try:
            codes = [d["code"] for d in json.loads(stdout)]
        except (ValueError, TypeError, KeyError) as e:
            return bad + [f"stdout is not a JSON diagnostic list: {e}"]
    else:
        codes = DIAG_CODE.findall(stdout)
        tail = f"{spec['path']}: 0 error(s), {want} warning(s)\n"
        expect(stdout.endswith(tail), f"summary line missing, want {tail!r}", bad)
    others = sorted(set(codes) - {"W0502"})
    expect(not others, f"unexpected codes {others}", bad)
    expect(len(codes) == want, f"{len(codes)} findings, want {want} x W0502", bad)
    return bad


def nrev_resolvents(n):
    """Resolvents of the one-solution nrev(n) derivation: rev walks n+1
    times and the i-th app call takes i+1 steps, (n+1)(n+2)/2 in total."""
    return (n + 1) * (n + 2) // 2


def audit_oracle(spec, code, stdout, stderr):
    """`slp audit nrev(n) -n 1`: R is the reversed list, every resolvent
    audited, no violation."""
    n = spec["n"]
    want = (
        f"R = {render_list(list(reversed(nrev_list(n))))}.\n"
        f"audited {nrev_resolvents(n)} resolvent(s): 0 violation(s), answers consistent\n"
    )
    bad = []
    expect(code == 0, f"exit {code}, want 0", bad)
    expect(stdout == want, f"stdout {stdout[-160:]!r}, want {want[-160:]!r}", bad)
    expect(stderr == "", f"unexpected stderr {stderr[:120]!r}", bad)
    return bad


def info_oracle(spec, code, stdout, stderr):
    """`slp info`: the summary line counts the generated clauses/queries."""
    want = f"{spec['clauses']} clause(s), {spec['queries']} query(ies)\n"
    bad = []
    expect(code == 0, f"exit {code}, want 0", bad)
    expect(stdout.endswith(want), f"summary {stdout[-80:]!r}, want {want!r}", bad)
    return bad


# ---------------------------------------------------------------------------
# serve_edits: base program and the seeded edit script
# ---------------------------------------------------------------------------

WELL_TYPED_EDITS = (
    "rev(cons(X, nil), cons(X, nil)).",
    "app(cons(X, nil), M, cons(X, M)).",
    "app(nil, cons(X, L), cons(X, L)).",
)
ILL_TYPED_EDITS = (
    "app(0, nil, nil).",
    "rev(nil, succ(0)).",
    "app(nil, 0, 0).",
)
INT_ORDERS = ("int >= nat + unnat.", "int >= unnat + nat.")
# Share of the edits that reorder int's union (a type-constraint edit)
# and that append an ill-typed clause; the rest append a well-typed one.
CONSTRAINT_EDIT_SHARE = 0.1
ILL_TYPED_SHARE = 0.3
# nrev(0) without its query: the list/nat declarations and app/rev, two
# clauses each.
SERVE_BASE_CLAUSES = 4
# Element depths of the serve queries: succ^0..1(0) beside pred^0..3(0).
# Each of the 2 x 4 pairs is one proof-store entry, so a delta retains 8
# entries once the store is warm.
SUCC_DEPTHS, PRED_DEPTHS = 2, 4


def serve_base(prefix, queries, rng):
    """`prefix` (nrev(0) without its query) and `queries` queries with
    variables over mixed nat/unnat elements; each raises subtype goals of
    the form list(int) >= ..."""
    out = [prefix]
    for i in range(queries):
        a = nested("succ", rng.randrange(SUCC_DEPTHS))
        b = nested("pred", rng.randrange(PRED_DEPTHS))
        if rng.random() < 0.75:
            out.append(f":- app(cons({a}, nil), cons({b}, L{i}), Z{i}).\n")
        else:
            out.append(f":- rev(cons({a}, cons({b}, nil)), R{i}).\n")
    return "".join(out)


def serve_episode(prefix, cls, queries, rng):
    """One serve episode: a `load` of a fresh base program followed by
    SERVE_EDITS delta+check pairs. Each step carries the request and the
    answer the oracle expects, derived from the edits made so far."""
    if INT_ORDERS[0] not in prefix:
        raise ValueError(f"the serve base program lacks `{INT_ORDERS[0]}`")
    base = serve_base(prefix, queries, rng)
    steps = [
        {
            "op": "load",
            "request": {"op": "load", "source": base},
            "want": {"clauses": SERVE_BASE_CLAUSES, "queries": queries},
        }
    ]
    appended, errors, order = [], 0, 0
    for _ in range(SERVE_EDITS):
        roll = rng.random()
        if roll < CONSTRAINT_EDIT_SHARE:
            order ^= 1
        elif roll < CONSTRAINT_EDIT_SHARE + ILL_TYPED_SHARE:
            appended.append(rng.choice(ILL_TYPED_EDITS))
            errors += 1
        else:
            appended.append(rng.choice(WELL_TYPED_EDITS))
        source = base.replace(INT_ORDERS[0], INT_ORDERS[order]) + "".join(
            c + "\n" for c in appended
        )
        clauses = SERVE_BASE_CLAUSES + len(appended)
        want = {"clauses": clauses, "queries": queries}
        steps.append({"op": "delta", "request": {"op": "delta", "source": source}, "want": want})
        steps.append(
            {"op": "check", "request": {"op": "check"}, "want": dict(want, errors=errors)}
        )
    return {"class": cls, "steps": steps}


def serve_oracle(want, response):
    """A serve response: status ok and every expected count equal."""
    bad = []
    expect(response.get("status") == "ok", f"status {response.get('status')!r}, want 'ok'", bad)
    for key, value in want.items():
        got = response.get(key)
        expect(got == value, f"{key} {got!r}, want {value!r}", bad)
    return bad


# ---------------------------------------------------------------------------
# Seeded schedules
# ---------------------------------------------------------------------------


# One cycle of the closed loop: four small items and one large one, so
# the median lies inside the small class and the 90th percentile near the
# middle of the large one.
CYCLE = ("small",) * 4 + ("large",)


def cycle(rng, classes=CYCLE):
    """One cycle of `classes` in seeded order."""
    items = list(classes)
    rng.shuffle(items)
    return items


def make_rng(seed, workload):
    return random.Random(f"{workload}:{seed}")
