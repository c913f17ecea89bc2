//! Front end of the bottom-up engine: Datalog-subset validation,
//! stratification, and compilation of rules to flat join plans.
//!
//! A program is lowered clause by clause. Ground facts become tuples over an
//! interned constant table ([`ConstTable`] — atoms and functors reuse the
//! template machinery's global [`Symbol`] interner, and the table extends
//! that interning to whole ground terms so tuples are fixed-width `u32`
//! rows). Rules become [`PlannedRule`]s: flat, ordered sequences of literal
//! probes with per-position read modes and bound-column sets, each mapped
//! to a registered hash-index key spec on its relation — one plan for the
//! seeding round and one delta-first plan per recursive literal for the
//! semi-naive rounds. Everything outside the subset —
//! cut, disjunction, if-then-else, arithmetic, builtins, metacalls,
//! non-ground compound arguments — is rejected with a typed
//! [`DatalogError`] naming the offending clause before any evaluation
//! starts.

use crate::error::DatalogError;
use granlog_ir::pretty::TermWithNames;
use granlog_ir::symbol::well_known;
use granlog_ir::{Clause, FastMap, PredId, Program, Symbol, Term};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Identifier of an interned ground term in a [`ConstTable`].
pub(crate) type ConstId = u32;

/// Interning table for ground terms.
///
/// Tuples in the evaluator are fixed-width `ConstId` rows; equality and
/// hashing are word comparisons, never term walks. Atoms are already interned
/// [`Symbol`]s, so for the common atom-constant case this adds one
/// indirection over the global symbol table rather than a second string
/// table.
#[derive(Debug, Default)]
pub(crate) struct ConstTable {
    terms: Vec<Term>,
    ids: FastMap<Term, ConstId>,
}

impl ConstTable {
    /// Interns a ground term, returning its id.
    pub(crate) fn intern(&mut self, t: &Term) -> ConstId {
        if let Some(&id) = self.ids.get(t) {
            return id;
        }
        let id = self.terms.len() as ConstId;
        self.terms.push(t.clone());
        self.ids.insert(t.clone(), id);
        id
    }

    /// Looks a ground term up without interning (query-side: an unknown
    /// constant cannot match any existing tuple).
    pub(crate) fn lookup(&self, t: &Term) -> Option<ConstId> {
        self.ids.get(t).copied()
    }

    /// The term behind an id.
    pub(crate) fn term(&self, id: ConstId) -> &Term {
        &self.terms[id as usize]
    }
}

/// One argument position of a literal or head: a rule-frame slot or an
/// interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgPat {
    /// A variable, as a slot in the rule's binding frame.
    Var(u32),
    /// An interned ground constant.
    Const(ConstId),
}

/// A validated body literal (pre-planning).
#[derive(Debug, Clone)]
pub(crate) struct Literal {
    pub(crate) pred: PredId,
    pub(crate) negated: bool,
    pub(crate) args: Vec<ArgPat>,
}

/// A validated rule (pre-planning).
#[derive(Debug, Clone)]
pub(crate) struct Rule {
    pub(crate) pred: PredId,
    pub(crate) head_args: Vec<ArgPat>,
    pub(crate) body: Vec<Literal>,
    pub(crate) num_slots: usize,
    pub(crate) display: String,
}

/// `(name, arity)` pairs the SLD engine resolves as builtins (mirrors the
/// engine's dispatch table) — all outside the Datalog subset, all rejected
/// with a diagnostic rather than silently treated as empty relations (which
/// would be a *wrong answer* relative to SLD, not a rejection).
const BUILTINS: &[(&str, usize)] = &[
    ("=", 2),
    ("\\=", 2),
    ("==", 2),
    ("\\==", 2),
    ("@<", 2),
    ("@>", 2),
    ("@=<", 2),
    ("@>=", 2),
    ("is", 2),
    ("<", 2),
    (">", 2),
    ("=<", 2),
    (">=", 2),
    ("=:=", 2),
    ("=\\=", 2),
    ("var", 1),
    ("nonvar", 1),
    ("atom", 1),
    ("number", 1),
    ("integer", 1),
    ("float", 1),
    ("atomic", 1),
    ("ground", 1),
    ("is_list", 1),
    ("functor", 3),
    ("arg", 3),
    ("=..", 2),
    ("length", 2),
    ("$grain_ge", 3),
    ("write", 1),
    ("print", 1),
    ("write_canonical", 1),
    ("tab", 1),
    ("nl", 0),
];

fn is_builtin(name: &str, arity: usize) -> bool {
    BUILTINS.contains(&(name, arity))
}

/// How constants are resolved while lowering: the program side interns new
/// ones, the query side only looks existing ones up.
pub(crate) enum ConstResolver<'a> {
    Intern(&'a mut ConstTable),
    Lookup(&'a ConstTable),
}

impl ConstResolver<'_> {
    fn resolve(&mut self, t: &Term) -> Option<ConstId> {
        match self {
            ConstResolver::Intern(table) => Some(table.intern(t)),
            ConstResolver::Lookup(table) => table.lookup(t),
        }
    }
}

/// A lowered literal whose constants may be outside the database's domain
/// (query side only; `impossible` is always `false` when interning).
pub(crate) struct LoweredLiteral {
    pub(crate) lit: Literal,
    /// A positive literal with an unknown constant can never match; a
    /// negated one is trivially true.
    pub(crate) impossible: bool,
}

/// Clause-lowering state: the slot map from source [`granlog_ir::VarId`]s to
/// dense rule-frame slots, in first-occurrence order.
pub(crate) struct LowerCtx<'a> {
    pub(crate) display: String,
    var_names: &'a [Symbol],
    slots: FastMap<usize, u32>,
    pub(crate) slot_names: Vec<Symbol>,
}

impl<'a> LowerCtx<'a> {
    pub(crate) fn new(display: String, var_names: &'a [Symbol]) -> Self {
        LowerCtx {
            display,
            var_names,
            slots: FastMap::default(),
            slot_names: Vec::new(),
        }
    }

    fn slot(&mut self, var: usize) -> u32 {
        if let Some(&s) = self.slots.get(&var) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slots.insert(var, s);
        self.slot_names.push(
            self.var_names
                .get(var)
                .copied()
                .unwrap_or_else(|| Symbol::intern(&format!("_{var}"))),
        );
        s
    }

    fn not_datalog(&self, construct: impl Into<String>) -> DatalogError {
        DatalogError::NotDatalog {
            clause: self.display.clone(),
            construct: construct.into(),
        }
    }

    fn lower_args(
        &mut self,
        args: &[Term],
        consts: &mut ConstResolver<'_>,
    ) -> Result<(Vec<ArgPat>, bool), DatalogError> {
        let mut out = Vec::with_capacity(args.len());
        let mut impossible = false;
        for arg in args {
            match arg {
                Term::Var(v) => out.push(ArgPat::Var(self.slot(*v))),
                t if t.is_ground() => match consts.resolve(t) {
                    Some(id) => out.push(ArgPat::Const(id)),
                    None => {
                        // Unknown constant (query side): keep the shape but
                        // mark the literal unmatchable. The placeholder id
                        // is never compared because `impossible` wins first.
                        out.push(ArgPat::Const(ConstId::MAX));
                        impossible = true;
                    }
                },
                t => {
                    return Err(self.not_datalog(format!(
                        "non-ground compound argument `{}`",
                        TermWithNames::new(t, self.var_names)
                    )))
                }
            }
        }
        Ok((out, impossible))
    }

    fn lower_literal(
        &mut self,
        goal: &Term,
        negated: bool,
        consts: &mut ConstResolver<'_>,
        out: &mut Vec<LoweredLiteral>,
    ) -> Result<(), DatalogError> {
        if goal.is_var() {
            return Err(self.not_datalog("metacall (variable goal)"));
        }
        let Some((name, arity)) = goal.functor() else {
            return Err(self.not_datalog(format!(
                "non-callable goal `{}`",
                TermWithNames::new(goal, self.var_names)
            )));
        };
        let name_str = name.as_str();
        if is_builtin(name_str, arity) {
            return Err(self.not_datalog(format!("builtin `{name_str}/{arity}`")));
        }
        if name_str == "call" {
            return Err(self.not_datalog(format!("metacall `call/{arity}`")));
        }
        if arity == 0 && (name == well_known::get().fail || name == well_known::get().false_) {
            return Err(self.not_datalog(format!("control atom `{name_str}`")));
        }
        let (args, impossible) = self.lower_args(goal.args(), consts)?;
        out.push(LoweredLiteral {
            lit: Literal {
                pred: PredId::new(name, arity),
                negated,
                args,
            },
            impossible,
        });
        Ok(())
    }

    /// Flattens a body (or query goal) into literals, rejecting everything
    /// outside the subset.
    pub(crate) fn lower_body(
        &mut self,
        body: &Term,
        consts: &mut ConstResolver<'_>,
        out: &mut Vec<LoweredLiteral>,
    ) -> Result<(), DatalogError> {
        let wk = well_known::get();
        match body {
            Term::Atom(s) if *s == wk.true_ => Ok(()),
            Term::Atom(s) if *s == wk.cut => Err(self.not_datalog("cut `!`")),
            Term::Struct(s, args) if args.len() == 2 && (*s == wk.comma || *s == wk.par_and) => {
                self.lower_body(&args[0], consts, out)?;
                self.lower_body(&args[1], consts, out)
            }
            Term::Struct(s, args) if args.len() == 2 && *s == wk.semicolon => {
                if matches!(&args[0], Term::Struct(a, ite) if *a == wk.arrow && ite.len() == 2) {
                    Err(self.not_datalog("if-then-else `->;`"))
                } else {
                    Err(self.not_datalog("disjunction `;`"))
                }
            }
            Term::Struct(s, args) if args.len() == 2 && *s == wk.arrow => {
                Err(self.not_datalog("if-then `->`"))
            }
            Term::Struct(s, args) if args.len() == 1 && *s == wk.not => {
                let inner = &args[0];
                if matches!(inner, Term::Struct(f, a) if a.len() == 2
                    && (*f == wk.comma || *f == wk.par_and || *f == wk.semicolon || *f == wk.arrow))
                    || matches!(inner, Term::Struct(f, a) if a.len() == 1 && *f == wk.not)
                {
                    return Err(self.not_datalog("non-literal under `\\+`"));
                }
                self.lower_literal(inner, true, consts, out)
            }
            goal => self.lower_literal(goal, false, consts, out),
        }
    }

    /// The source name of a slot.
    pub(crate) fn slot_name(&self, slot: u32) -> Symbol {
        self.slot_names[slot as usize]
    }
}

fn lower_clause(clause: &Clause, consts: &mut ConstTable) -> Result<LoweredClause, DatalogError> {
    let mut ctx = LowerCtx::new(clause.display().to_string(), &clause.var_names);
    let Some((name, arity)) = clause.head.functor() else {
        return Err(DatalogError::NotDatalog {
            clause: ctx.display,
            construct: "non-callable clause head".into(),
        });
    };
    let pred = PredId::new(name, arity);
    let mut resolver = ConstResolver::Intern(consts);
    let (head_args, _) = ctx.lower_args(clause.head.args(), &mut resolver)?;
    let mut body = Vec::new();
    ctx.lower_body(&clause.body, &mut resolver, &mut body)?;
    let body: Vec<Literal> = body.into_iter().map(|l| l.lit).collect();

    // Range restriction: every head variable and every variable of a negated
    // literal must occur in a positive body literal.
    let positive: BTreeSet<u32> = body
        .iter()
        .filter(|l| !l.negated)
        .flat_map(|l| l.args.iter())
        .filter_map(|a| match a {
            ArgPat::Var(s) => Some(*s),
            ArgPat::Const(_) => None,
        })
        .collect();
    let check = |args: &[ArgPat]| -> Result<(), DatalogError> {
        for a in args {
            if let ArgPat::Var(s) = a {
                if !positive.contains(s) {
                    return Err(DatalogError::UnsafeClause {
                        clause: ctx.display.clone(),
                        var: ctx.slot_name(*s).to_string(),
                    });
                }
            }
        }
        Ok(())
    };
    check(&head_args)?;
    for lit in body.iter().filter(|l| l.negated) {
        check(&lit.args)?;
    }

    if body.is_empty() {
        // All-const head (a variable would have failed the check above).
        let tuple: Box<[ConstId]> = head_args
            .iter()
            .map(|a| match a {
                ArgPat::Const(c) => *c,
                ArgPat::Var(_) => unreachable!("unsafe fact passed the range check"),
            })
            .collect();
        return Ok(LoweredClause::Fact(pred, tuple));
    }
    Ok(LoweredClause::Rule(Rule {
        pred,
        head_args,
        body,
        num_slots: ctx.slot_names.len(),
        display: ctx.display,
    }))
}

enum LoweredClause {
    Fact(PredId, Box<[ConstId]>),
    Rule(Rule),
}

/// Assigns a stratum to every predicate by iterative relaxation: a positive
/// dependency forces `stratum(head) >= stratum(body)`, a negative one
/// forces strict inequality. A value exceeding the predicate count proves a
/// negative cycle, i.e. the program is not stratifiable.
fn stratify(
    rules: &[Rule],
    pred_ix: &FastMap<PredId, usize>,
    num_preds: usize,
) -> Result<Vec<usize>, DatalogError> {
    let mut stratum = vec![0usize; num_preds];
    loop {
        let mut changed = false;
        for rule in rules {
            let h = pred_ix[&rule.pred];
            for lit in &rule.body {
                let b = pred_ix[&lit.pred];
                let need = stratum[b] + usize::from(lit.negated);
                if stratum[h] < need {
                    if need > num_preds {
                        return Err(DatalogError::NotStratified {
                            pred: rule.pred.to_string(),
                            clause: rule.display.clone(),
                        });
                    }
                    stratum[h] = need;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(stratum);
        }
    }
}

/// Which tuples of its relation a probe reads in one join batch.
///
/// A semi-naive round runs one plan per delta literal. Relative to that
/// literal's source position, same-stratum recursive literals written
/// before it read the total and those written after it read only the old
/// tuples, so every new combination of tuples is joined exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadMode {
    /// Every tuple: the old ones plus the previous round's insertions.
    Total,
    /// Only the previous round's insertions.
    Delta,
    /// Only the tuples inserted before the previous round.
    Old,
}

/// A literal compiled to a probe: which relation, which tuples it reads,
/// which columns are bound when the probe runs, and which registered index
/// serves it.
#[derive(Debug, Clone)]
pub(crate) struct PlannedLiteral {
    /// Relation (predicate) index in [`Schema::preds`].
    pub(crate) rel: usize,
    pub(crate) negated: bool,
    pub(crate) read: ReadMode,
    pub(crate) args: Vec<ArgPat>,
    /// Slot in the relation's registered index list serving this probe's
    /// bound columns (`None` when unindexed: full scan, or an
    /// all-columns-bound membership test).
    pub(crate) index_slot: Option<usize>,
    /// Every column is bound: the probe is a set-membership test.
    pub(crate) all_bound: bool,
}

/// A rule compiled to flat join plans.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRule {
    /// Head relation index.
    pub(crate) rel: usize,
    pub(crate) head_args: Vec<ArgPat>,
    pub(crate) num_slots: usize,
    pub(crate) stratum: usize,
    /// The seeding round's plan: positive literals in source order, then
    /// negated literals (whose variables are all bound by then), every one
    /// reading the total.
    pub(crate) seed: Vec<PlannedLiteral>,
    /// One plan per positive literal over a same-stratum IDB relation, for
    /// the semi-naive rounds: that literal first, reading the delta, then
    /// the other positives in source order, then the negations.
    pub(crate) deltas: Vec<Vec<PlannedLiteral>>,
}

/// Per-predicate compile-time info.
#[derive(Debug, Clone)]
pub(crate) struct PredInfo {
    pub(crate) pred: PredId,
    pub(crate) arity: usize,
    pub(crate) stratum: usize,
    /// Head of at least one rule (IDB).
    pub(crate) has_rules: bool,
}

/// The rules and delta-tracked relations of one stratum.
#[derive(Debug, Clone)]
pub(crate) struct StratumPlan {
    pub(crate) rules: Vec<usize>,
    /// Relations written by this stratum's rules (delta bookkeeping).
    pub(crate) rels: Vec<usize>,
}

/// The program-wide tables every [`Database`](crate::Database) evaluated
/// from a program shares with it: the constant table and the predicate
/// universe. Shared behind an `Arc`, never copied per evaluation.
#[derive(Debug)]
pub(crate) struct Schema {
    pub(crate) consts: ConstTable,
    pub(crate) preds: Vec<PredInfo>,
    pub(crate) pred_ix: FastMap<PredId, usize>,
}

/// A Datalog program compiled for bottom-up evaluation: validated subset,
/// stratified, rules flattened to join plans, hash-index key specs
/// registered per relation. Immutable and cheap to share.
#[derive(Debug, Clone)]
pub struct CompiledDatalog {
    pub(crate) rules: Vec<PlannedRule>,
    pub(crate) facts: Vec<(usize, Box<[ConstId]>)>,
    pub(crate) schema: Arc<Schema>,
    pub(crate) strata: Vec<StratumPlan>,
    /// Registered index key specs (sorted column lists) per relation.
    pub(crate) rel_indexes: Vec<Vec<Vec<u32>>>,
}

impl CompiledDatalog {
    /// Validates `program` against the Datalog subset and compiles it.
    ///
    /// Rejections are typed and name the offending clause; see
    /// [`DatalogError`].
    pub fn compile(program: &Program) -> Result<CompiledDatalog, DatalogError> {
        let mut consts = ConstTable::default();
        let mut rules = Vec::new();
        let mut raw_facts = Vec::new();
        for clause in program.clauses() {
            match lower_clause(clause, &mut consts)? {
                LoweredClause::Fact(pred, tuple) => raw_facts.push((pred, tuple)),
                LoweredClause::Rule(rule) => rules.push(rule),
            }
        }

        // Predicate universe in a deterministic order: heads, fact
        // predicates and body references alike (body-only predicates are
        // legal Datalog — empty relations).
        let universe: BTreeSet<PredId> = rules
            .iter()
            .flat_map(|r| std::iter::once(r.pred).chain(r.body.iter().map(|l| l.pred)))
            .chain(raw_facts.iter().map(|(p, _)| *p))
            .collect();
        let preds_ordered: Vec<PredId> = universe.into_iter().collect();
        let pred_ix: FastMap<PredId, usize> = preds_ordered
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();

        let strata_of = stratify(&rules, &pred_ix, preds_ordered.len())?;
        let mut preds: Vec<PredInfo> = preds_ordered
            .iter()
            .enumerate()
            .map(|(i, &pred)| PredInfo {
                pred,
                arity: pred.arity,
                stratum: strata_of[i],
                has_rules: false,
            })
            .collect();
        for rule in &rules {
            preds[pred_ix[&rule.pred]].has_rules = true;
        }

        // Plan every rule and register its index key specs.
        let mut rel_indexes: Vec<Vec<Vec<u32>>> = vec![Vec::new(); preds.len()];
        let planned: Vec<PlannedRule> = rules
            .iter()
            .map(|rule| plan_rule(rule, &preds, &pred_ix, &mut rel_indexes))
            .collect();

        let num_strata = preds.iter().map(|p| p.stratum).max().unwrap_or(0) + 1;
        let mut strata: Vec<StratumPlan> = (0..num_strata)
            .map(|_| StratumPlan {
                rules: Vec::new(),
                rels: Vec::new(),
            })
            .collect();
        for (i, rule) in planned.iter().enumerate() {
            strata[rule.stratum].rules.push(i);
            if !strata[rule.stratum].rels.contains(&rule.rel) {
                strata[rule.stratum].rels.push(rule.rel);
            }
        }

        let facts = raw_facts
            .into_iter()
            .map(|(pred, tuple)| (pred_ix[&pred], tuple))
            .collect();

        Ok(CompiledDatalog {
            rules: planned,
            facts,
            schema: Arc::new(Schema {
                consts,
                preds,
                pred_ix,
            }),
            strata,
            rel_indexes,
        })
    }

    /// The predicates defined by rules (the IDB), in deterministic order.
    pub fn idb_predicates(&self) -> Vec<PredId> {
        self.schema
            .preds
            .iter()
            .filter(|p| p.has_rules)
            .map(|p| p.pred)
            .collect()
    }

    /// Number of strata in the schedule (1 for negation-free programs).
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Number of compiled rules (facts excluded).
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }
}

/// Compiles literals, given in probe order with their read modes, to
/// probes: computes each one's bound columns from the slots bound by the
/// positive literals before it, and asks `index_for` for an index over
/// those columns when the probe is a positive partial-key lookup.
pub(crate) fn plan_probes<'l>(
    order: impl IntoIterator<Item = (&'l Literal, usize, ReadMode)>,
    mut index_for: impl FnMut(usize, &[u32]) -> Option<usize>,
) -> Vec<PlannedLiteral> {
    let mut bound_slots: BTreeSet<u32> = BTreeSet::new();
    let mut lits = Vec::new();
    for (lit, rel, read) in order {
        let bound_cols: Vec<u32> = lit
            .args
            .iter()
            .enumerate()
            .filter(|(_, a)| match a {
                ArgPat::Const(_) => true,
                ArgPat::Var(s) => bound_slots.contains(s),
            })
            .map(|(col, _)| col as u32)
            .collect();
        let all_bound = bound_cols.len() == lit.args.len();
        let index_slot = if !lit.negated && !all_bound && !bound_cols.is_empty() {
            index_for(rel, &bound_cols)
        } else {
            None
        };
        if !lit.negated {
            bound_slots.extend(lit.args.iter().filter_map(|a| match a {
                ArgPat::Var(s) => Some(*s),
                ArgPat::Const(_) => None,
            }));
        }
        lits.push(PlannedLiteral {
            rel,
            negated: lit.negated,
            read,
            args: lit.args.clone(),
            index_slot,
            all_bound,
        });
    }
    lits
}

/// Plans one rule: the seeding plan in source order, and one delta-first
/// plan per same-stratum recursive literal, registering every index key
/// spec the plans probe with. Positive literals otherwise keep source
/// order (Datalog conjunction is commutative, and source order is the
/// author's join-order hint); negated literals run last, when range
/// restriction guarantees their variables are bound.
fn plan_rule(
    rule: &Rule,
    preds: &[PredInfo],
    pred_ix: &FastMap<PredId, usize>,
    rel_indexes: &mut [Vec<Vec<u32>>],
) -> PlannedRule {
    let head_stratum = preds[pred_ix[&rule.pred]].stratum;
    let rel_of = |lit: &Literal| pred_ix[&lit.pred];
    let recursive = |lit: &Literal| {
        let p = &preds[rel_of(lit)];
        !lit.negated && p.stratum == head_stratum && p.has_rules
    };
    let mut register = |rel: usize, cols: &[u32]| {
        let specs = &mut rel_indexes[rel];
        Some(specs.iter().position(|s| s == cols).unwrap_or_else(|| {
            specs.push(cols.to_vec());
            specs.len() - 1
        }))
    };
    let positives: Vec<&Literal> = rule.body.iter().filter(|l| !l.negated).collect();
    let negations = || {
        rule.body
            .iter()
            .filter(|l| l.negated)
            .map(|l| (l, rel_of(l), ReadMode::Total))
    };

    let seed = plan_probes(
        positives
            .iter()
            .map(|&l| (l, rel_of(l), ReadMode::Total))
            .chain(negations()),
        &mut register,
    );
    let deltas = positives
        .iter()
        .enumerate()
        .filter(|(_, l)| recursive(l))
        .map(|(d, &delta)| {
            let rest = positives
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != d)
                .map(|(i, &l)| {
                    let read = if i > d && recursive(l) {
                        ReadMode::Old
                    } else {
                        ReadMode::Total
                    };
                    (l, rel_of(l), read)
                });
            plan_probes(
                std::iter::once((delta, rel_of(delta), ReadMode::Delta))
                    .chain(rest)
                    .chain(negations()),
                &mut register,
            )
        })
        .collect();

    PlannedRule {
        rel: pred_ix[&rule.pred],
        head_args: rule.head_args.clone(),
        num_slots: rule.num_slots,
        stratum: head_stratum,
        seed,
        deltas,
    }
}
