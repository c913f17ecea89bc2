//! Semi-naive fixpoint evaluation and query answering.
//!
//! Strata run in dependency order. Within a stratum, a seeding round runs
//! every rule's source-order plan against the current totals, then
//! semi-naive rounds run, per rule, one plan per recursive body literal
//! whose relation grew in the previous round. That plan probes the delta
//! literal first, so its outer loop ranges over exactly the previous
//! round's insertions; every later probe is keyed by the slots bound so
//! far. Recursive literals written before the delta literal read the full
//! total (old plus delta) and those written after it read only the old
//! tuples, so every new combination is derived exactly once. Relations
//! keep their registered hash indexes incrementally (posting lists of
//! ascending tuple indices, extended on insert), so a round costs work in
//! proportion to its delta and the delta's join partners, not to the
//! relations' sizes: on a chain topology the fixpoint is O(n) rounds of
//! O(1) probes each, O(n) overall.
//!
//! Probes build their keys in one reused buffer and look them up through
//! `Borrow<[ConstId]>`; tuples are stored flat per relation, and stored
//! keys of up to four ids are held inline. Join batches allocate nothing
//! once the buffers have grown; inserting a tuple allocates only the
//! posting list of an index key seen for the first time.
//!
//! Failpoint seams: `datalog.join` (one check per join batch, query probes
//! included) and `datalog.fixpoint.round` (one check per round). Without
//! `--features failpoints` both compile to const no-ops.

use crate::compile::{
    plan_probes, ArgPat, CompiledDatalog, ConstId, ConstResolver, LowerCtx, PlannedLiteral,
    PlannedRule, ReadMode, Schema,
};
use crate::error::DatalogError;
use granlog_engine::rterm::RTerm;
use granlog_ir::{FastMap, PredId, Symbol, Term};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Slot sentinel: not yet bound.
const UNBOUND: u32 = u32::MAX;

/// Counters of one fixpoint evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Fixpoint rounds across all strata (seeding rounds included).
    pub rounds: u64,
    /// Facts derived by rules (EDB facts and duplicates excluded).
    pub derived_facts: u64,
    /// Ground facts loaded from the program.
    pub edb_facts: u64,
    /// Join batches executed (one per rule and round in seeding rounds,
    /// one per rule and grown delta literal in semi-naive rounds).
    pub join_batches: u64,
    /// Join probes: every tuple tried against a literal, plus every
    /// membership and anti-join lookup.
    pub probes: u64,
}

/// Ids a [`Key`] holds without a heap allocation.
const INLINE: usize = 4;

/// A stored tuple or index key: up to [`INLINE`] ids inline, longer keys
/// boxed. It hashes and compares as the `[ConstId]` slice it holds, so
/// maps keyed by it are probed with a plain slice.
#[derive(Debug, Clone)]
enum Key {
    Inline(u8, [ConstId; INLINE]),
    Boxed(Box<[ConstId]>),
}

impl Key {
    fn new(ids: &[ConstId]) -> Key {
        if ids.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..ids.len()].copy_from_slice(ids);
            Key::Inline(ids.len() as u8, inline)
        } else {
            Key::Boxed(ids.into())
        }
    }

    fn as_slice(&self) -> &[ConstId] {
        match self {
            Key::Inline(len, ids) => &ids[..*len as usize],
            Key::Boxed(ids) => ids,
        }
    }
}

impl Borrow<[ConstId]> for Key {
    fn borrow(&self) -> &[ConstId] {
        self.as_slice()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// One hash index over a relation: key columns → posting list of tuple
/// indices, ascending (maintained incrementally on insert).
#[derive(Debug, Default)]
struct Index {
    cols: Vec<u32>,
    map: FastMap<Key, Vec<usize>>,
}

/// A fact relation: insertion-ordered tuples stored flat, a
/// dedup/membership map, and the registered indexes.
#[derive(Debug, Default)]
struct Relation {
    arity: usize,
    /// Every tuple's `arity` ids, back to back, in insertion order.
    data: Vec<ConstId>,
    /// Tuple → its insertion index.
    set: FastMap<Key, usize>,
    indexes: Vec<Index>,
}

impl Relation {
    /// Inserts a tuple unless present; `key` is scratch for index keys.
    fn insert(&mut self, tuple: &[ConstId], key: &mut Vec<ConstId>) -> bool {
        if self.set.contains_key(tuple) {
            return false;
        }
        let idx = self.len();
        for ix in &mut self.indexes {
            key.clear();
            key.extend(ix.cols.iter().map(|&c| tuple[c as usize]));
            match ix.map.get_mut(key.as_slice()) {
                Some(postings) => postings.push(idx),
                None => {
                    ix.map.insert(Key::new(key), vec![idx]);
                }
            }
        }
        self.set.insert(Key::new(tuple), idx);
        self.data.extend_from_slice(tuple);
        true
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn tuple(&self, i: usize) -> &[ConstId] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }
}

/// The materialized result of a fixpoint evaluation, ready to answer
/// queries. Immutable once built — safe to cache and share across sessions.
#[derive(Debug)]
pub struct Database {
    schema: Arc<Schema>,
    rels: Vec<Relation>,
    stats: FixpointStats,
}

/// All answers to a query: the query's variables (first-occurrence order)
/// and one ground row per answer, in derivation order.
///
/// Rows are materialized through the engine's canonical [`RTerm`] runtime
/// boundary — the same representation SLD answers cross — so the two
/// engines' answer sets are directly comparable.
#[derive(Debug, Clone)]
pub struct QueryAnswers {
    /// The query's variables, in first-occurrence order.
    pub vars: Vec<Symbol>,
    /// One ground row per answer (same length as `vars`).
    pub rows: Vec<Vec<RTerm>>,
}

impl QueryAnswers {
    /// Did at least one answer exist?
    pub fn succeeded(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Row `i` as SLD-shaped name/term bindings.
    pub fn bindings(&self, i: usize) -> Vec<(Symbol, Term)> {
        self.vars
            .iter()
            .zip(&self.rows[i])
            .map(|(&name, r)| (name, rterm_to_ir(r)))
            .collect()
    }
}

/// Converts a ground runtime term back to IR for display and comparison
/// (the inverse of [`RTerm::from_ir`] on ground terms).
fn rterm_to_ir(r: &RTerm) -> Term {
    match r {
        RTerm::Var(v) => Term::Var(*v),
        RTerm::Atom(s) => Term::Atom(*s),
        RTerm::Int(i) => Term::Int(*i),
        RTerm::Float(x) => Term::float(*x),
        RTerm::Struct(s, args) => Term::structure(*s, args.iter().map(rterm_to_ir).collect()),
    }
}

/// Buffers one evaluation (or query) reuses across all its join batches.
#[derive(Default)]
struct Scratch {
    /// The rule frame: one constant per slot, [`UNBOUND`] when unbound.
    bind: Vec<u32>,
    /// The probe key under construction.
    key: Vec<ConstId>,
    /// Slots bound by the probes on the current path, undone on backtrack.
    trail: Vec<u32>,
}

/// Nested-loop join of one plan over the relations. Each literal's read
/// mode picks its tuple-index range: the semi-naive delta/total split is
/// expressed purely through these ranges.
struct Join<'a, F: FnMut(&[u32])> {
    rels: &'a [Relation],
    lits: &'a [PlannedLiteral],
    /// Per relation: the first tuple the previous round inserted.
    starts: &'a [usize],
    scratch: &'a mut Scratch,
    probes: u64,
    emit: F,
}

impl<F: FnMut(&[u32])> Join<'_, F> {
    /// Runs the join, returning its probe count.
    fn run(mut self, num_slots: usize) -> Result<u64, DatalogError> {
        granlog_fault::fail_or("datalog.join", || DatalogError::Fault("datalog.join"))?;
        self.scratch.bind.clear();
        self.scratch.bind.resize(num_slots, UNBOUND);
        self.step(0);
        Ok(self.probes)
    }

    /// Fills the key buffer with `args` resolved under the current frame.
    fn fill_key(&mut self, args: impl Iterator<Item = ArgPat>) {
        let Scratch { bind, key, .. } = &mut *self.scratch;
        key.clear();
        key.extend(args.map(|arg| resolve(arg, bind)));
    }

    fn step(&mut self, pos: usize) {
        let (lits, rels) = (self.lits, self.rels);
        let Some(lit) = lits.get(pos) else {
            (self.emit)(&self.scratch.bind);
            return;
        };
        let rel = &rels[lit.rel];
        let (lo, hi) = match lit.read {
            ReadMode::Total => (0, rel.len()),
            ReadMode::Delta => (self.starts[lit.rel], rel.len()),
            ReadMode::Old => (0, self.starts[lit.rel]),
        };
        if lit.negated || lit.all_bound {
            // Membership test; for a negation, an anti-join. A negated
            // literal has all columns bound (range restriction) and reads
            // a strictly lower stratum, which is complete.
            self.probes += 1;
            self.fill_key(lit.args.iter().copied());
            let found = rel
                .set
                .get(self.scratch.key.as_slice())
                .is_some_and(|&i| lo <= i && i < hi);
            if found != lit.negated {
                self.step(pos + 1);
            }
            return;
        }
        match lit.index_slot {
            Some(slot) => {
                let ix = &rel.indexes[slot];
                self.fill_key(ix.cols.iter().map(|&c| lit.args[c as usize]));
                let Some(postings) = ix.map.get(self.scratch.key.as_slice()) else {
                    return;
                };
                let start = postings.partition_point(|&i| i < lo);
                for &i in &postings[start..] {
                    if i >= hi {
                        break;
                    }
                    self.try_tuple(pos, rel.tuple(i));
                }
            }
            None => {
                for i in lo..hi {
                    self.try_tuple(pos, rel.tuple(i));
                }
            }
        }
    }

    fn try_tuple(&mut self, pos: usize, tuple: &[ConstId]) {
        self.probes += 1;
        let lit = &self.lits[pos];
        let Scratch { bind, trail, .. } = &mut *self.scratch;
        let mark = trail.len();
        let matched = lit.args.iter().zip(tuple).all(|(&arg, &v)| match arg {
            ArgPat::Const(c) => c == v,
            ArgPat::Var(s) => {
                let slot = &mut bind[s as usize];
                if *slot == UNBOUND {
                    *slot = v;
                    trail.push(s);
                    true
                } else {
                    *slot == v
                }
            }
        });
        if matched {
            self.step(pos + 1);
        }
        let Scratch { bind, trail, .. } = &mut *self.scratch;
        for s in trail.drain(mark..) {
            bind[s as usize] = UNBOUND;
        }
    }
}

fn resolve(arg: ArgPat, bind: &[u32]) -> ConstId {
    match arg {
        ArgPat::Const(c) => c,
        ArgPat::Var(s) => bind[s as usize],
    }
}

/// Head tuples derived in one round, buffered flat until the round's joins
/// finish.
#[derive(Default)]
struct Derived {
    rels: Vec<usize>,
    vals: Vec<ConstId>,
}

impl Derived {
    /// Inserts every buffered tuple, returning how many were new.
    fn drain_into(&mut self, rels: &mut [Relation], key: &mut Vec<ConstId>) -> u64 {
        let mut inserted = 0;
        let mut off = 0;
        for &rel in &self.rels {
            let end = off + rels[rel].arity;
            if rels[rel].insert(&self.vals[off..end], key) {
                inserted += 1;
            }
            off = end;
        }
        self.rels.clear();
        self.vals.clear();
        inserted
    }
}

impl CompiledDatalog {
    /// Runs the stratified semi-naive fixpoint to completion.
    ///
    /// Deterministic for a given program; fails only through injected
    /// faults (`--features failpoints`).
    pub fn evaluate(&self) -> Result<Database, DatalogError> {
        self.evaluate_traced(None)
    }

    /// [`CompiledDatalog::evaluate`] with structured trace emission: one
    /// `datalog_stratum` event per non-empty stratum and one
    /// `datalog_round` event per seeding/semi-naive round, carrying the
    /// running round number and that round's insertion count. With
    /// `tracer` absent (or disabled) evaluation is byte-for-byte the plain
    /// path — the fixpoint itself never consults the tracer.
    pub fn evaluate_traced(
        &self,
        tracer: Option<&granlog_obs::Tracer>,
    ) -> Result<Database, DatalogError> {
        let mut stats = FixpointStats::default();
        let mut rels: Vec<Relation> = self
            .schema
            .preds
            .iter()
            .zip(&self.rel_indexes)
            .map(|(pred, specs)| Relation {
                arity: pred.arity,
                indexes: specs
                    .iter()
                    .map(|cols| Index {
                        cols: cols.clone(),
                        map: FastMap::default(),
                    })
                    .collect(),
                ..Relation::default()
            })
            .collect();
        let mut scratch = Scratch::default();
        for (rel, tuple) in &self.facts {
            if rels[*rel].insert(tuple, &mut scratch.key) {
                stats.edb_facts += 1;
            }
        }

        // Per relation written by the current stratum: where the previous
        // round's insertions start (the delta runs from there to the end).
        let mut starts = vec![0; rels.len()];
        let mut out = Derived::default();
        let round = |stats: &mut FixpointStats| {
            granlog_fault::fail_or("datalog.fixpoint.round", || {
                DatalogError::Fault("datalog.fixpoint.round")
            })?;
            stats.rounds += 1;
            Ok::<(), DatalogError>(())
        };
        for (stratum_ix, stratum) in self.strata.iter().enumerate() {
            if stratum.rules.is_empty() {
                continue;
            }
            if let Some(t) = tracer {
                t.emit(
                    "datalog_stratum",
                    vec![
                        ("stratum", stratum_ix.into()),
                        ("rules", stratum.rules.len().into()),
                    ],
                );
            }

            // Seeding round: every rule once against the current totals
            // (lower strata plus this stratum's ground facts).
            round(&mut stats)?;
            for &r in &stratum.rules {
                let rule = &self.rules[r];
                run_rule(
                    rule,
                    &rule.seed,
                    &rels,
                    &starts,
                    &mut scratch,
                    &mut out,
                    &mut stats,
                )?;
            }
            loop {
                for &r in &stratum.rels {
                    starts[r] = rels[r].len();
                }
                let inserted = out.drain_into(&mut rels, &mut scratch.key);
                stats.derived_facts += inserted;
                if let Some(t) = tracer {
                    t.emit(
                        "datalog_round",
                        vec![
                            ("stratum", stratum_ix.into()),
                            ("round", stats.rounds.into()),
                            ("inserted", inserted.into()),
                        ],
                    );
                }
                if inserted == 0 {
                    break;
                }

                // Semi-naive round: each rule runs its delta-first plan for
                // every recursive literal whose relation just grew.
                round(&mut stats)?;
                for &r in &stratum.rules {
                    let rule = &self.rules[r];
                    for plan in &rule.deltas {
                        let drel = plan[0].rel;
                        if rels[drel].len() > starts[drel] {
                            run_rule(
                                rule,
                                plan,
                                &rels,
                                &starts,
                                &mut scratch,
                                &mut out,
                                &mut stats,
                            )?;
                        }
                    }
                }
            }
        }

        Ok(Database {
            schema: Arc::clone(&self.schema),
            rels,
            stats,
        })
    }
}

/// Executes one plan of a rule (one join batch), buffering the derived
/// head tuples into `out`.
fn run_rule(
    rule: &PlannedRule,
    plan: &[PlannedLiteral],
    rels: &[Relation],
    starts: &[usize],
    scratch: &mut Scratch,
    out: &mut Derived,
    stats: &mut FixpointStats,
) -> Result<(), DatalogError> {
    stats.join_batches += 1;
    let join = Join {
        rels,
        lits: plan,
        starts,
        scratch,
        probes: 0,
        emit: |bind: &[u32]| {
            out.rels.push(rule.rel);
            out.vals
                .extend(rule.head_args.iter().map(|&arg| resolve(arg, bind)));
        },
    };
    stats.probes += join.run(rule.num_slots)?;
    Ok(())
}

impl Database {
    /// Evaluation counters.
    pub fn stats(&self) -> &FixpointStats {
        &self.stats
    }

    /// Total tuples across every relation (EDB plus derived).
    pub fn total_facts(&self) -> u64 {
        self.rels.iter().map(|r| r.len() as u64).sum()
    }

    /// Tuples in one relation (0 for unknown predicates — legal Datalog,
    /// an empty relation).
    pub fn relation_size(&self, pred: PredId) -> usize {
        self.schema
            .pred_ix
            .get(&pred)
            .map_or(0, |&i| self.rels[i].len())
    }

    /// Every predicate in the database with its relation size, in
    /// deterministic order.
    pub fn predicates(&self) -> impl Iterator<Item = (PredId, usize)> + '_ {
        self.schema
            .preds
            .iter()
            .zip(&self.rels)
            .map(|(p, rel)| (p.pred, rel.len()))
    }

    /// Answers a query goal against the materialized database.
    ///
    /// The goal is a conjunction of literals in the same Datalog subset as
    /// program bodies (negation allowed, range-restricted over the goal's
    /// positive literals); `var_names` maps the goal's
    /// [`granlog_ir::VarId`]s to source names, exactly as
    /// [`granlog_ir::parser::parse_term`] returns them. Answers come back
    /// in derivation order, one row per distinct variable assignment.
    pub fn query(&self, goal: &Term, var_names: &[Symbol]) -> Result<QueryAnswers, DatalogError> {
        self.query_counted(goal, var_names)
            .map(|(answers, _)| answers)
    }

    /// [`Database::query`] plus the number of probes its join made.
    pub(crate) fn query_counted(
        &self,
        goal: &Term,
        var_names: &[Symbol],
    ) -> Result<(QueryAnswers, u64), DatalogError> {
        let display = granlog_ir::pretty::TermWithNames::new(goal, var_names).to_string();
        let mut ctx = LowerCtx::new(display, var_names);
        let mut resolver = ConstResolver::Lookup(&self.schema.consts);
        let mut lowered = Vec::new();
        ctx.lower_body(goal, &mut resolver, &mut lowered)?;

        // The answer columns: every goal variable, first-occurrence order.
        let vars: Vec<Symbol> = ctx.slot_names.clone();
        let num_slots = vars.len();

        // Order probes like rule planning: positives first (source order),
        // then negations; enforce range restriction over the goal itself.
        let mut pos_lits = Vec::new();
        let mut neg_lits = Vec::new();
        let mut impossible = false;
        for l in lowered {
            if l.lit.negated {
                if l.impossible {
                    // `\+ p(<unknown constant>)`: trivially true, drop it.
                    continue;
                }
                neg_lits.push(l.lit);
            } else {
                impossible |= l.impossible;
                pos_lits.push(l.lit);
            }
        }
        let positive_slots: BTreeSet<u32> = pos_lits
            .iter()
            .flat_map(|l| l.args.iter())
            .filter_map(|a| match a {
                ArgPat::Var(s) => Some(*s),
                ArgPat::Const(_) => None,
            })
            .collect();
        for s in 0..num_slots as u32 {
            if !positive_slots.contains(&s) {
                return Err(DatalogError::UnsafeClause {
                    clause: ctx.display.clone(),
                    var: ctx.slot_name(s).to_string(),
                });
            }
        }
        let no_answers = |vars| {
            Ok((
                QueryAnswers {
                    vars,
                    rows: Vec::new(),
                },
                0,
            ))
        };
        if impossible {
            return no_answers(vars);
        }

        // A positive literal over a predicate the program never mentions is
        // an empty relation: no answers. A negated one is trivially true
        // and dropped.
        let mut order = Vec::with_capacity(pos_lits.len() + neg_lits.len());
        for l in pos_lits.iter().chain(&neg_lits) {
            match self.schema.pred_ix.get(&l.pred) {
                Some(&rel) => order.push((l, rel, ReadMode::Total)),
                None if l.negated => {}
                None => return no_answers(vars),
            }
        }
        // Partial-key probes use an index the program's rules registered
        // over exactly their bound columns; otherwise they scan.
        let lits = plan_probes(order, |rel, cols| {
            self.rels[rel].indexes.iter().position(|ix| ix.cols == cols)
        });

        let mut rows: Vec<Vec<RTerm>> = Vec::new();
        let join = Join {
            rels: &self.rels,
            lits: &lits,
            // Every query literal reads the total: no delta starts.
            starts: &[],
            scratch: &mut Scratch::default(),
            probes: 0,
            emit: |bind: &[u32]| {
                rows.push(
                    bind.iter()
                        .map(|&c| RTerm::from_ir(self.schema.consts.term(c), 0))
                        .collect(),
                );
            },
        };
        let probes = join.run(num_slots)?;
        Ok((QueryAnswers { vars, rows }, probes))
    }
}
