//! The SLD programs the workloads run: each suite program with a query
//! generated from the workload seed, and the reference answer every op is
//! checked against.
//!
//! References are computed before any timing. Where a closed form exists
//! (fib value, hanoi move count, sortedness plus permutation, nrev, matrix
//! product) it is computed here and the sequential `Machine` answer must
//! match it; otherwise the sequential `Machine` answer is the reference.

use crate::stats::mix;
use granlog_benchmarks::{benchmark, generate, Benchmark};
use granlog_engine::Machine;
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{Program, Term};

/// Rendered query bindings, `(variable, term text)` in source order.
pub type Bindings = Vec<(String, String)>;

/// A closed-form answer for the query's output variable.
enum ClosedForm {
    Int(i64),
    IntList(Vec<i64>),
    ListLen(usize),
    Matrix(Vec<Vec<i64>>),
}

/// One program of a workload.
pub struct Spec {
    pub name: &'static str,
    pub bench: Benchmark,
    pub size: usize,
    pub query: String,
    closed_form: Option<(&'static str, ClosedForm)>,
}

impl Spec {
    pub fn label(&self) -> String {
        format!("{}({})", self.name, self.size)
    }
}

/// The fifteen SLD programs of the suite (the twelve Table-1 programs,
/// `nrev`, and the two control-construct programs).
pub const SUITE: [&str; 15] = [
    "consistency",
    "fib",
    "hanoi",
    "quick_sort",
    "lr1_set",
    "double_sum",
    "fft",
    "flatten",
    "matrix_mult",
    "merge_sort",
    "poly_inclusion",
    "tree_traversal",
    "nrev",
    "cut_search",
    "ite_dispatch",
];

fn parse_ints(list_text: &str) -> Vec<i64> {
    list_text
        .trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("generated lists hold integers"))
        .collect()
}

fn parse_matrix(text: &str) -> Vec<Vec<i64>> {
    text.trim_start_matches('[')
        .trim_end_matches(']')
        .split("],[")
        .map(parse_ints)
        .collect()
}

fn fib(n: usize) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Builds the spec of suite program `name` at `size`, its input data drawn
/// from `seed`.
pub fn spec(name: &'static str, size: usize, seed: u64) -> Spec {
    let bench = benchmark(name).unwrap_or_else(|| panic!("{name} is not a suite program"));
    let s = mix(seed, name.bytes().fold(0u64, |h, b| h * 31 + u64::from(b)));
    let n = size;
    let (query, closed_form) = match name {
        "fib" => (
            format!("fib({n}, Result)"),
            Some(("Result", ClosedForm::Int(fib(n)))),
        ),
        "hanoi" => (
            format!("hanoi({n}, a, b, c, Moves)"),
            Some(("Moves", ClosedForm::ListLen((1usize << n) - 1))),
        ),
        "quick_sort" | "merge_sort" => {
            let list = generate::int_list(n, 1000, s);
            let mut sorted = parse_ints(&list);
            sorted.sort_unstable();
            let functor = if name == "quick_sort" {
                "qsort"
            } else {
                "msort"
            };
            (
                format!("{functor}({list}, Sorted)"),
                Some(("Sorted", ClosedForm::IntList(sorted))),
            )
        }
        "nrev" => {
            let list = generate::int_list(n, 100, s);
            let mut reversed = parse_ints(&list);
            reversed.reverse();
            (
                format!("nrev({list}, Reversed)"),
                Some(("Reversed", ClosedForm::IntList(reversed))),
            )
        }
        "matrix_mult" => {
            let (a, b) = (generate::matrix(n, s), generate::matrix(n, s ^ 1));
            // The program takes its second matrix as a list of columns, so
            // entry (i, j) is row i of `a` dotted with row j of `b`.
            let (ma, mb) = (parse_matrix(&a), parse_matrix(&b));
            let product = ma
                .iter()
                .map(|row| {
                    mb.iter()
                        .map(|col| row.iter().zip(col).map(|(x, y)| x * y).sum())
                        .collect()
                })
                .collect();
            (
                format!("mmult({a}, {b}, Product)"),
                Some(("Product", ClosedForm::Matrix(product))),
            )
        }
        "double_sum" => (
            format!(
                "double_sum({}, Sum)",
                generate::list_of_lists(n, (n / 32).max(1), 100, s)
            ),
            None,
        ),
        "tree_traversal" => (format!("tsum({}, Sum)", generate::full_tree(n, s)), None),
        "flatten" => (
            format!(
                "flat({}, Flat)",
                generate::list_of_lists(n, (n / 4).max(1), 100, s)
            ),
            None,
        ),
        "consistency" => (
            format!("consistent({})", generate::int_list(n, 1000, s)),
            None,
        ),
        "fft" => (
            format!("fft({}, Spectrum)", generate::complex_points(n, s)),
            None,
        ),
        "poly_inclusion" => (
            format!(
                "poly_inclusion({}, {}, Results)",
                generate::points(40, 120, s),
                generate::polygon(n, 100)
            ),
            None,
        ),
        "lr1_set" => (
            format!("lr_sets({n}, {}, Sets)", generate::item_sets(12, 6, s)),
            None,
        ),
        "cut_search" => (
            format!("dedup({}, Unique)", generate::int_list(n, 25, s)),
            None,
        ),
        "ite_dispatch" => (
            format!("collatz_lens({}, Lens)", generate::pos_int_list(n, 5000, s)),
            None,
        ),
        other => panic!("no query generator for {other}"),
    };
    Spec {
        name,
        bench,
        size,
        query,
        closed_form,
    }
}

/// Renders an outcome's bindings the way the serve protocol does.
pub fn render(bindings: &[(granlog_ir::Symbol, Term)]) -> Bindings {
    bindings
        .iter()
        .map(|(name, term)| (name.to_string(), term.to_string()))
        .collect()
}

fn int_of(t: &Term) -> Option<i64> {
    match t {
        Term::Int(v) => Some(*v),
        _ => None,
    }
}

fn ints_of(t: &Term) -> Option<Vec<i64>> {
    t.as_list()?.into_iter().map(int_of).collect()
}

fn matches_closed_form(form: &ClosedForm, answer: &str) -> bool {
    let Ok((term, _)) = parse_term(answer) else {
        return false;
    };
    match form {
        ClosedForm::Int(v) => int_of(&term) == Some(*v),
        ClosedForm::IntList(v) => ints_of(&term).as_ref() == Some(v),
        ClosedForm::ListLen(n) => term.list_length() == Some(*n),
        ClosedForm::Matrix(rows) => {
            term.as_list()
                .and_then(|r| r.into_iter().map(ints_of).collect::<Option<Vec<_>>>())
                .as_ref()
                == Some(rows)
        }
    }
}

/// The reference answer of `spec`: the sequential `Machine`'s bindings,
/// cross-checked against the closed form where one exists.
///
/// # Panics
///
/// If the query fails or disagrees with its closed form: the workload
/// would then have no correct answer to check ops against.
pub fn reference(spec: &Spec, program: &Program) -> Bindings {
    let mut machine = Machine::new(program);
    let out = machine
        .run_query(&spec.query)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", spec.label()));
    assert!(out.succeeded, "{}: reference query failed", spec.label());
    let bindings = render(&out.bindings);
    if let Some((var, form)) = &spec.closed_form {
        let answer = bindings
            .iter()
            .find(|(name, _)| name == var)
            .map(|(_, text)| text.as_str())
            .unwrap_or_else(|| panic!("{}: no binding for {var}", spec.label()));
        assert!(
            matches_closed_form(form, answer),
            "{}: sequential answer disagrees with the closed form",
            spec.label()
        );
    }
    bindings
}

/// Parses the suite program behind `spec`.
pub fn program(spec: &Spec) -> Program {
    parse_program(spec.bench.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", spec.name))
}
