//! Hash-consing term manager and term constructors.

use std::collections::HashMap;
use std::sync::Arc;

use crate::fxhash::FxHashMap;
use crate::{BvValue, IrError, Op, Rational, Result, Sort, Term, TermId};

/// A concrete value, used for model representation and term evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean value.
    Bool(bool),
    /// A bit-vector value.
    Bv(BvValue),
    /// A real value.
    Real(Rational),
    /// A bounded-integer value.
    Int(i64),
}

impl Value {
    /// Extracts the boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts the bit-vector payload, if any.
    pub fn as_bv(&self) -> Option<BvValue> {
        match self {
            Value::Bv(v) => Some(*v),
            _ => None,
        }
    }
}

/// An uninterpreted function declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDecl {
    /// Function name.
    pub name: String,
    /// Argument sorts.
    pub args: Vec<Sort>,
    /// Return sort.
    pub ret: Sort,
}

/// The hash-consing term factory.
///
/// Every term lives inside exactly one manager and is referenced through a
/// [`TermId`].  Constructors perform sort checking and light constant
/// folding, so structurally equal terms always share an id.
///
/// ```
/// use pact_ir::{TermManager, Sort};
/// let mut tm = TermManager::new();
/// let x = tm.mk_var("x", Sort::BitVec(4));
/// let a = tm.mk_bv_add(x, x).unwrap();
/// let b = tm.mk_bv_add(x, x).unwrap();
/// assert_eq!(a, b); // hash consing
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermManager {
    /// The frozen, shared prefix of the store (possibly empty).
    base: Arc<TermSnapshot>,
    /// Everything interned since the last [`TermManager::snapshot`].  Maps
    /// in the tail store *global* ids/indices, so flattening a tail into a
    /// snapshot is pure concatenation and never rewrites an id.
    tail: TermSnapshot,
}

/// An immutable snapshot of a term store, shareable across threads.
///
/// Produced by [`TermManager::snapshot`]; consumed by
/// [`TermManager::from_snapshot`].  Every `TermId` minted by the manager
/// the snapshot came from (up to the snapshot point) resolves to an
/// identical term in every manager built from it — sharing a formula with
/// N workers is N `Arc` clones of one id table, not N deep copies.
#[derive(Debug, Clone, Default)]
pub struct TermSnapshot {
    terms: Vec<Term>,
    interned: FxHashMap<Term, TermId>,
    symbols: Vec<String>,
    vars_by_name: FxHashMap<String, TermId>,
    funs: Vec<FunDecl>,
    funs_by_name: FxHashMap<String, u32>,
    fresh_counter: u64,
    /// Result variables of flattened applications (see
    /// [`TermManager::mk_app_var`]), keyed by head and argument ids.
    app_vars: FxHashMap<(AppHead, Vec<TermId>), TermId>,
}

/// The head of an application that preprocessing flattens into a result
/// variable (see [`TermManager::mk_app_var`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppHead {
    /// An application of the uninterpreted function with this index.
    Fun(u32),
    /// A `select` read of this array variable.
    Array(TermId),
}

impl TermSnapshot {
    /// Number of distinct terms frozen in this snapshot.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the snapshot holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl TermManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        TermManager::default()
    }

    /// Creates a manager that shares the interned prefix in `base`.
    ///
    /// All ids minted before the snapshot resolve identically in the new
    /// manager; terms interned afterwards land in a private tail.  Managers
    /// built from the same snapshot allocate identical ids for identical
    /// construction sequences, which is what keeps parallel rounds
    /// bit-identical.
    pub fn from_snapshot(base: Arc<TermSnapshot>) -> Self {
        let tail = TermSnapshot {
            fresh_counter: base.fresh_counter,
            ..TermSnapshot::default()
        };
        TermManager { base, tail }
    }

    /// Freezes the current store into an immutable, shareable snapshot.
    ///
    /// The manager keeps working afterwards (new terms go to a fresh tail
    /// on top of the returned snapshot); if nothing was interned since the
    /// last call this is a free `Arc` clone.
    pub fn snapshot(&mut self) -> Arc<TermSnapshot> {
        let tail_untouched = self.tail.terms.is_empty()
            && self.tail.symbols.is_empty()
            && self.tail.funs.is_empty()
            && self.tail.fresh_counter == self.base.fresh_counter;
        if tail_untouched {
            return Arc::clone(&self.base);
        }
        let tail = std::mem::take(&mut self.tail);
        // Flatten base + tail.  Reuse the base allocation when this manager
        // holds the only reference; ids stay valid either way because the
        // frozen prefix is append-only.
        let mut snap = Arc::try_unwrap(std::mem::take(&mut self.base))
            .unwrap_or_else(|shared| (*shared).clone());
        snap.terms.extend(tail.terms);
        snap.interned.extend(tail.interned);
        snap.symbols.extend(tail.symbols);
        snap.vars_by_name.extend(tail.vars_by_name);
        snap.funs.extend(tail.funs);
        snap.funs_by_name.extend(tail.funs_by_name);
        snap.app_vars.extend(tail.app_vars);
        snap.fresh_counter = tail.fresh_counter;
        self.tail.fresh_counter = snap.fresh_counter;
        self.base = Arc::new(snap);
        Arc::clone(&self.base)
    }

    /// Number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.base.terms.len() + self.tail.terms.len()
    }

    /// Returns `true` when no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.base.interned.get(&term) {
            return id;
        }
        if let Some(&id) = self.tail.interned.get(&term) {
            return id;
        }
        let id = TermId::from_index(self.len());
        self.tail.terms.push(term.clone());
        self.tail.interned.insert(term, id);
        id
    }

    /// Returns the interned term for `id`.
    pub fn term(&self, id: TermId) -> &Term {
        let i = id.index();
        let frozen = self.base.terms.len();
        if i < frozen {
            &self.base.terms[i]
        } else {
            &self.tail.terms[i - frozen]
        }
    }

    /// Returns the operator of `id`.
    pub fn op(&self, id: TermId) -> &Op {
        &self.term(id).op
    }

    /// Returns the children of `id`.
    pub fn children(&self, id: TermId) -> &[TermId] {
        &self.term(id).children
    }

    /// Returns the sort of `id`.
    pub fn sort(&self, id: TermId) -> Sort {
        self.term(id).sort.clone()
    }

    /// Returns the variable's name if `id` is a variable.
    pub fn var_name(&self, id: TermId) -> Option<&str> {
        match self.op(id) {
            Op::Var(sym) => {
                let s = *sym as usize;
                let frozen = self.base.symbols.len();
                Some(if s < frozen {
                    &self.base.symbols[s]
                } else {
                    &self.tail.symbols[s - frozen]
                })
            }
            _ => None,
        }
    }

    /// Looks up a previously declared variable by name.
    pub fn find_var(&self, name: &str) -> Option<TermId> {
        self.base
            .vars_by_name
            .get(name)
            .or_else(|| self.tail.vars_by_name.get(name))
            .copied()
    }

    /// Returns the declaration of uninterpreted function `fun`.
    pub fn fun_decl(&self, fun: u32) -> &FunDecl {
        let f = fun as usize;
        let frozen = self.base.funs.len();
        if f < frozen {
            &self.base.funs[f]
        } else {
            &self.tail.funs[f - frozen]
        }
    }

    /// Looks up an uninterpreted function by name.
    pub fn find_fun(&self, name: &str) -> Option<u32> {
        self.base
            .funs_by_name
            .get(name)
            .or_else(|| self.tail.funs_by_name.get(name))
            .copied()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Creates (or returns) the variable `name` of sort `sort`.
    ///
    /// Declaring the same name twice with the same sort returns the original
    /// variable; redeclaring with a different sort panics (use unique names).
    pub fn mk_var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(id) = self.find_var(name) {
            assert_eq!(
                self.sort(id),
                sort,
                "variable {name} redeclared with a different sort"
            );
            return id;
        }
        let sym = (self.base.symbols.len() + self.tail.symbols.len()) as u32;
        self.tail.symbols.push(name.to_string());
        let id = self.intern(Term {
            op: Op::Var(sym),
            children: vec![],
            sort,
        });
        self.tail.vars_by_name.insert(name.to_string(), id);
        id
    }

    /// Creates a fresh variable whose name starts with `prefix`.
    pub fn mk_fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        loop {
            let name = format!("{prefix}!{}", self.tail.fresh_counter);
            self.tail.fresh_counter += 1;
            if self.find_var(&name).is_none() {
                return self.mk_var(&name, sort);
            }
        }
    }

    /// The variable standing for the result of the application
    /// `head(args)`, created on first use.
    ///
    /// The same head and argument ids always return the same variable, so
    /// preprocessing the same formula again interns nothing new.  The
    /// variable is left out of the name table: [`TermManager::find_var`]
    /// and [`TermManager::mk_var`] never return it, so it can never alias a
    /// user-declared symbol, whatever its display name.
    pub fn mk_app_var(&mut self, head: AppHead, args: &[TermId], sort: Sort) -> TermId {
        let key = (head, args.to_vec());
        if let Some(&v) = self
            .base
            .app_vars
            .get(&key)
            .or_else(|| self.tail.app_vars.get(&key))
        {
            return v;
        }
        let hint = match head {
            AppHead::Fun(f) => self.fun_decl(f).name.clone(),
            AppHead::Array(a) => self.var_name(a).unwrap_or("array").to_string(),
        };
        let sym = (self.base.symbols.len() + self.tail.symbols.len()) as u32;
        self.tail.symbols.push(format!("{hint}!ack!{sym}"));
        let v = self.intern(Term {
            op: Op::Var(sym),
            children: vec![],
            sort,
        });
        self.tail.app_vars.insert(key, v);
        v
    }

    /// Declares an uninterpreted function and returns its index.
    pub fn declare_fun(&mut self, name: &str, args: Vec<Sort>, ret: Sort) -> u32 {
        if let Some(f) = self.find_fun(name) {
            return f;
        }
        let f = (self.base.funs.len() + self.tail.funs.len()) as u32;
        self.tail.funs.push(FunDecl {
            name: name.to_string(),
            args,
            ret,
        });
        self.tail.funs_by_name.insert(name.to_string(), f);
        f
    }

    /// The boolean constant `true`.
    pub fn mk_true(&mut self) -> TermId {
        self.intern(Term {
            op: Op::BoolConst(true),
            children: vec![],
            sort: Sort::Bool,
        })
    }

    /// The boolean constant `false`.
    pub fn mk_false(&mut self) -> TermId {
        self.intern(Term {
            op: Op::BoolConst(false),
            children: vec![],
            sort: Sort::Bool,
        })
    }

    /// A boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> TermId {
        if b {
            self.mk_true()
        } else {
            self.mk_false()
        }
    }

    /// A bit-vector constant of the given width.
    pub fn mk_bv_const(&mut self, value: u128, width: u32) -> TermId {
        let v = BvValue::new(value, width);
        self.intern(Term {
            op: Op::BvConst(v),
            children: vec![],
            sort: Sort::BitVec(width),
        })
    }

    /// A bit-vector constant from an existing [`BvValue`].
    pub fn mk_bv_value(&mut self, value: BvValue) -> TermId {
        self.intern(Term {
            op: Op::BvConst(value),
            children: vec![],
            sort: Sort::BitVec(value.width()),
        })
    }

    /// A real constant.
    pub fn mk_real_const(&mut self, value: Rational) -> TermId {
        self.intern(Term {
            op: Op::RealConst(value),
            children: vec![],
            sort: Sort::Real,
        })
    }

    /// A bounded-integer constant (its sort is the singleton range).
    pub fn mk_int_const(&mut self, value: i64) -> TermId {
        self.intern(Term {
            op: Op::IntConst(value),
            children: vec![],
            sort: Sort::BoundedInt {
                lo: value,
                hi: value,
            },
        })
    }

    // ------------------------------------------------------------------
    // Booleans
    // ------------------------------------------------------------------

    fn expect_bool(&self, id: TermId, context: &str) -> Result<()> {
        if self.sort(id) == Sort::Bool {
            Ok(())
        } else {
            Err(IrError::SortMismatch {
                context: format!("{context}: expected Bool, got {}", self.sort(id)),
            })
        }
    }

    /// Logical negation, folding constants and double negation.
    pub fn mk_not(&mut self, a: TermId) -> TermId {
        match self.op(a) {
            Op::BoolConst(b) => {
                let b = !*b;
                self.mk_bool(b)
            }
            Op::Not => self.children(a)[0],
            _ => self.intern(Term {
                op: Op::Not,
                children: vec![a],
                sort: Sort::Bool,
            }),
        }
    }

    /// N-ary conjunction; units and constants are folded away.
    pub fn mk_and(&mut self, args: impl IntoIterator<Item = TermId>) -> TermId {
        let mut children = Vec::new();
        for a in args {
            match self.op(a) {
                Op::BoolConst(true) => {}
                Op::BoolConst(false) => return self.mk_false(),
                Op::And => children.extend(self.children(a).to_vec()),
                _ => children.push(a),
            }
        }
        children.sort();
        children.dedup();
        match children.len() {
            0 => self.mk_true(),
            1 => children[0],
            _ => self.intern(Term {
                op: Op::And,
                children,
                sort: Sort::Bool,
            }),
        }
    }

    /// N-ary disjunction; units and constants are folded away.
    pub fn mk_or(&mut self, args: impl IntoIterator<Item = TermId>) -> TermId {
        let mut children = Vec::new();
        for a in args {
            match self.op(a) {
                Op::BoolConst(false) => {}
                Op::BoolConst(true) => return self.mk_true(),
                Op::Or => children.extend(self.children(a).to_vec()),
                _ => children.push(a),
            }
        }
        children.sort();
        children.dedup();
        match children.len() {
            0 => self.mk_false(),
            1 => children[0],
            _ => self.intern(Term {
                op: Op::Or,
                children,
                sort: Sort::Bool,
            }),
        }
    }

    /// Binary boolean exclusive or.
    pub fn mk_xor(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_bool(a, "xor")?;
        self.expect_bool(b, "xor")?;
        if let (Op::BoolConst(x), Op::BoolConst(y)) = (self.op(a).clone(), self.op(b).clone()) {
            return Ok(self.mk_bool(x ^ y));
        }
        if a == b {
            return Ok(self.mk_false());
        }
        Ok(self.intern(Term {
            op: Op::Xor,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    /// Implication `a => b`.
    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_bool(a, "implies")?;
        self.expect_bool(b, "implies")?;
        let not_a = self.mk_not(a);
        Ok(self.mk_or([not_a, b]))
    }

    /// If-then-else over any sort.
    pub fn mk_ite(&mut self, cond: TermId, then: TermId, els: TermId) -> Result<TermId> {
        self.expect_bool(cond, "ite condition")?;
        let sort = self.sort(then);
        if sort != self.sort(els) {
            return Err(IrError::SortMismatch {
                context: format!("ite branches: {} vs {}", self.sort(then), self.sort(els)),
            });
        }
        match self.op(cond) {
            Op::BoolConst(true) => return Ok(then),
            Op::BoolConst(false) => return Ok(els),
            _ => {}
        }
        if then == els {
            return Ok(then);
        }
        Ok(self.intern(Term {
            op: Op::Ite,
            children: vec![cond, then, els],
            sort,
        }))
    }

    /// Equality between two terms of the same sort.
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(
            self.sort(a),
            self.sort(b),
            "equality between different sorts: {} vs {}",
            self.sort(a),
            self.sort(b)
        );
        if a == b {
            return self.mk_true();
        }
        if let (Op::BvConst(x), Op::BvConst(y)) = (self.op(a), self.op(b)) {
            let eq = x == y;
            return self.mk_bool(eq);
        }
        if let (Op::BoolConst(x), Op::BoolConst(y)) = (self.op(a), self.op(b)) {
            let eq = x == y;
            return self.mk_bool(eq);
        }
        if let (Op::RealConst(x), Op::RealConst(y)) = (self.op(a), self.op(b)) {
            let eq = x == y;
            return self.mk_bool(eq);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term {
            op: Op::Eq,
            children: vec![a, b],
            sort: Sort::Bool,
        })
    }

    /// Pairwise distinctness of the given terms.
    pub fn mk_distinct(&mut self, args: Vec<TermId>) -> TermId {
        if args.len() < 2 {
            return self.mk_true();
        }
        if args.len() == 2 {
            let eq = self.mk_eq(args[0], args[1]);
            return self.mk_not(eq);
        }
        self.intern(Term {
            op: Op::Distinct,
            children: args,
            sort: Sort::Bool,
        })
    }

    // ------------------------------------------------------------------
    // Bit-vectors
    // ------------------------------------------------------------------

    fn bv_width_of(&self, id: TermId, context: &str) -> Result<u32> {
        self.sort(id)
            .bv_width()
            .ok_or_else(|| IrError::SortMismatch {
                context: format!("{context}: expected bit-vector, got {}", self.sort(id)),
            })
    }

    fn mk_bv_binop(&mut self, op: Op, a: TermId, b: TermId, name: &str) -> Result<TermId> {
        let wa = self.bv_width_of(a, name)?;
        let wb = self.bv_width_of(b, name)?;
        if wa != wb {
            return Err(IrError::SortMismatch {
                context: format!("{name}: width {wa} vs {wb}"),
            });
        }
        if let (Op::BvConst(x), Op::BvConst(y)) = (self.op(a), self.op(b)) {
            let (x, y) = (*x, *y);
            let folded = match op {
                Op::BvAdd => Some(x.wrapping_add(&y)),
                Op::BvMul => Some(x.wrapping_mul(&y)),
                Op::BvXor => Some(x.xor(&y)),
                Op::BvAnd => Some(BvValue::new(x.as_u128() & y.as_u128(), wa)),
                Op::BvOr => Some(BvValue::new(x.as_u128() | y.as_u128(), wa)),
                Op::BvSub => Some(BvValue::new(x.as_u128().wrapping_sub(y.as_u128()), wa)),
                _ => None,
            };
            if let Some(v) = folded {
                return Ok(self.mk_bv_value(v));
            }
        }
        Ok(self.intern(Term {
            op,
            children: vec![a, b],
            sort: Sort::BitVec(wa),
        }))
    }

    /// Modular bit-vector addition.
    pub fn mk_bv_add(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvAdd, a, b, "bvadd")
    }

    /// Modular bit-vector subtraction.
    pub fn mk_bv_sub(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvSub, a, b, "bvsub")
    }

    /// Modular bit-vector multiplication.
    pub fn mk_bv_mul(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvMul, a, b, "bvmul")
    }

    /// Unsigned bit-vector division.
    pub fn mk_bv_udiv(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvUdiv, a, b, "bvudiv")
    }

    /// Unsigned bit-vector remainder.
    pub fn mk_bv_urem(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvUrem, a, b, "bvurem")
    }

    /// Bitwise and.
    pub fn mk_bv_and(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvAnd, a, b, "bvand")
    }

    /// Bitwise or.
    pub fn mk_bv_or(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvOr, a, b, "bvor")
    }

    /// Bitwise exclusive or.
    pub fn mk_bv_xor(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvXor, a, b, "bvxor")
    }

    /// Logical left shift.
    pub fn mk_bv_shl(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvShl, a, b, "bvshl")
    }

    /// Logical right shift.
    pub fn mk_bv_lshr(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvLshr, a, b, "bvlshr")
    }

    /// Arithmetic right shift.
    pub fn mk_bv_ashr(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_binop(Op::BvAshr, a, b, "bvashr")
    }

    /// Bitwise complement.
    pub fn mk_bv_not(&mut self, a: TermId) -> Result<TermId> {
        let w = self.bv_width_of(a, "bvnot")?;
        if let Op::BvConst(x) = self.op(a) {
            let v = BvValue::new(!x.as_u128(), w);
            return Ok(self.mk_bv_value(v));
        }
        Ok(self.intern(Term {
            op: Op::BvNot,
            children: vec![a],
            sort: Sort::BitVec(w),
        }))
    }

    /// Two's-complement negation.
    pub fn mk_bv_neg(&mut self, a: TermId) -> Result<TermId> {
        let w = self.bv_width_of(a, "bvneg")?;
        if let Op::BvConst(x) = self.op(a) {
            let v = BvValue::new(x.as_u128().wrapping_neg(), w);
            return Ok(self.mk_bv_value(v));
        }
        Ok(self.intern(Term {
            op: Op::BvNeg,
            children: vec![a],
            sort: Sort::BitVec(w),
        }))
    }

    /// Concatenation (`a` provides the high bits).
    pub fn mk_bv_concat(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        let wa = self.bv_width_of(a, "concat")?;
        let wb = self.bv_width_of(b, "concat")?;
        if let (Op::BvConst(x), Op::BvConst(y)) = (self.op(a), self.op(b)) {
            let v = x.concat(y);
            return Ok(self.mk_bv_value(v));
        }
        Ok(self.intern(Term {
            op: Op::BvConcat,
            children: vec![a, b],
            sort: Sort::BitVec(wa + wb),
        }))
    }

    /// Bit extraction `[hi:lo]`.
    pub fn mk_bv_extract(&mut self, a: TermId, hi: u32, lo: u32) -> Result<TermId> {
        let w = self.bv_width_of(a, "extract")?;
        if hi < lo || hi >= w {
            return Err(IrError::SortMismatch {
                context: format!("extract [{hi}:{lo}] out of range for width {w}"),
            });
        }
        if hi == w - 1 && lo == 0 {
            return Ok(a);
        }
        if let Op::BvConst(x) = self.op(a) {
            let v = x.extract(hi, lo);
            return Ok(self.mk_bv_value(v));
        }
        Ok(self.intern(Term {
            op: Op::BvExtract { hi, lo },
            children: vec![a],
            sort: Sort::BitVec(hi - lo + 1),
        }))
    }

    /// Zero extension by `by` bits.
    pub fn mk_bv_zero_extend(&mut self, a: TermId, by: u32) -> Result<TermId> {
        let w = self.bv_width_of(a, "zero_extend")?;
        if by == 0 {
            return Ok(a);
        }
        if let Op::BvConst(x) = self.op(a) {
            let v = BvValue::new(x.as_u128(), w + by);
            return Ok(self.mk_bv_value(v));
        }
        Ok(self.intern(Term {
            op: Op::BvZeroExtend(by),
            children: vec![a],
            sort: Sort::BitVec(w + by),
        }))
    }

    /// Sign extension by `by` bits.
    pub fn mk_bv_sign_extend(&mut self, a: TermId, by: u32) -> Result<TermId> {
        let w = self.bv_width_of(a, "sign_extend")?;
        if by == 0 {
            return Ok(a);
        }
        Ok(self.intern(Term {
            op: Op::BvSignExtend(by),
            children: vec![a],
            sort: Sort::BitVec(w + by),
        }))
    }

    fn mk_bv_cmp(&mut self, op: Op, a: TermId, b: TermId, name: &str) -> Result<TermId> {
        let wa = self.bv_width_of(a, name)?;
        let wb = self.bv_width_of(b, name)?;
        if wa != wb {
            return Err(IrError::SortMismatch {
                context: format!("{name}: width {wa} vs {wb}"),
            });
        }
        if let (Op::BvConst(x), Op::BvConst(y)) = (self.op(a), self.op(b)) {
            let result = match op {
                Op::BvUlt => x.as_u128() < y.as_u128(),
                Op::BvUle => x.as_u128() <= y.as_u128(),
                Op::BvSlt => x.as_i128() < y.as_i128(),
                Op::BvSle => x.as_i128() <= y.as_i128(),
                _ => unreachable!(),
            };
            return Ok(self.mk_bool(result));
        }
        Ok(self.intern(Term {
            op,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    /// Unsigned less-than.
    pub fn mk_bv_ult(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_cmp(Op::BvUlt, a, b, "bvult")
    }

    /// Unsigned less-or-equal.
    pub fn mk_bv_ule(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_cmp(Op::BvUle, a, b, "bvule")
    }

    /// Signed less-than.
    pub fn mk_bv_slt(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_cmp(Op::BvSlt, a, b, "bvslt")
    }

    /// Signed less-or-equal.
    pub fn mk_bv_sle(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_bv_cmp(Op::BvSle, a, b, "bvsle")
    }

    // ------------------------------------------------------------------
    // Reals
    // ------------------------------------------------------------------

    fn expect_real(&self, id: TermId, context: &str) -> Result<()> {
        if self.sort(id) == Sort::Real {
            Ok(())
        } else {
            Err(IrError::SortMismatch {
                context: format!("{context}: expected Real, got {}", self.sort(id)),
            })
        }
    }

    /// N-ary real addition.
    pub fn mk_real_add(&mut self, args: Vec<TermId>) -> Result<TermId> {
        for &a in &args {
            self.expect_real(a, "real add")?;
        }
        match args.len() {
            0 => Ok(self.mk_real_const(Rational::ZERO)),
            1 => Ok(args[0]),
            _ => Ok(self.intern(Term {
                op: Op::RealAdd,
                children: args,
                sort: Sort::Real,
            })),
        }
    }

    /// Real subtraction.
    pub fn mk_real_sub(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_real(a, "real sub")?;
        self.expect_real(b, "real sub")?;
        Ok(self.intern(Term {
            op: Op::RealSub,
            children: vec![a, b],
            sort: Sort::Real,
        }))
    }

    /// Real multiplication (linear fragments require a constant factor; the
    /// solver rejects non-linear products at solve time).
    pub fn mk_real_mul(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_real(a, "real mul")?;
        self.expect_real(b, "real mul")?;
        if let (Op::RealConst(x), Op::RealConst(y)) = (self.op(a), self.op(b)) {
            let v = *x * *y;
            return Ok(self.mk_real_const(v));
        }
        Ok(self.intern(Term {
            op: Op::RealMul,
            children: vec![a, b],
            sort: Sort::Real,
        }))
    }

    /// Real negation.
    pub fn mk_real_neg(&mut self, a: TermId) -> Result<TermId> {
        self.expect_real(a, "real neg")?;
        if let Op::RealConst(x) = self.op(a) {
            let v = -*x;
            return Ok(self.mk_real_const(v));
        }
        Ok(self.intern(Term {
            op: Op::RealNeg,
            children: vec![a],
            sort: Sort::Real,
        }))
    }

    /// Strict real less-than.
    pub fn mk_real_lt(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_real(a, "real lt")?;
        self.expect_real(b, "real lt")?;
        if let (Op::RealConst(x), Op::RealConst(y)) = (self.op(a), self.op(b)) {
            let r = x < y;
            return Ok(self.mk_bool(r));
        }
        Ok(self.intern(Term {
            op: Op::RealLt,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    /// Real less-or-equal.
    pub fn mk_real_le(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_real(a, "real le")?;
        self.expect_real(b, "real le")?;
        if let (Op::RealConst(x), Op::RealConst(y)) = (self.op(a), self.op(b)) {
            let r = x <= y;
            return Ok(self.mk_bool(r));
        }
        Ok(self.intern(Term {
            op: Op::RealLe,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    // ------------------------------------------------------------------
    // Floating point (relaxed)
    // ------------------------------------------------------------------

    fn expect_float(&self, id: TermId, context: &str) -> Result<()> {
        if matches!(self.sort(id), Sort::Float { .. }) {
            Ok(())
        } else {
            Err(IrError::SortMismatch {
                context: format!("{context}: expected FloatingPoint, got {}", self.sort(id)),
            })
        }
    }

    fn mk_fp_binop(&mut self, op: Op, a: TermId, b: TermId, name: &str) -> Result<TermId> {
        self.expect_float(a, name)?;
        self.expect_float(b, name)?;
        let sort = self.sort(a);
        if sort != self.sort(b) {
            return Err(IrError::SortMismatch {
                context: format!("{name}: mismatched float sorts"),
            });
        }
        Ok(self.intern(Term {
            op,
            children: vec![a, b],
            sort,
        }))
    }

    fn mk_fp_pred(&mut self, op: Op, a: TermId, b: TermId, name: &str) -> Result<TermId> {
        self.expect_float(a, name)?;
        self.expect_float(b, name)?;
        Ok(self.intern(Term {
            op,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    /// Floating point addition.
    pub fn mk_fp_add(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_binop(Op::FpAdd, a, b, "fp.add")
    }

    /// Floating point subtraction.
    pub fn mk_fp_sub(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_binop(Op::FpSub, a, b, "fp.sub")
    }

    /// Floating point multiplication.
    pub fn mk_fp_mul(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_binop(Op::FpMul, a, b, "fp.mul")
    }

    /// Floating point negation.
    pub fn mk_fp_neg(&mut self, a: TermId) -> Result<TermId> {
        self.expect_float(a, "fp.neg")?;
        let sort = self.sort(a);
        Ok(self.intern(Term {
            op: Op::FpNeg,
            children: vec![a],
            sort,
        }))
    }

    /// Floating point equality predicate.
    pub fn mk_fp_eq(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_pred(Op::FpEq, a, b, "fp.eq")
    }

    /// Floating point less-than predicate.
    pub fn mk_fp_lt(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_pred(Op::FpLt, a, b, "fp.lt")
    }

    /// Floating point less-or-equal predicate.
    pub fn mk_fp_le(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.mk_fp_pred(Op::FpLe, a, b, "fp.leq")
    }

    /// Conversion from floating point to real.
    pub fn mk_fp_to_real(&mut self, a: TermId) -> Result<TermId> {
        self.expect_float(a, "fp.to_real")?;
        Ok(self.intern(Term {
            op: Op::FpToReal,
            children: vec![a],
            sort: Sort::Real,
        }))
    }

    /// Conversion from real to floating point of the given sort.
    pub fn mk_real_to_fp(&mut self, a: TermId, sort: Sort) -> Result<TermId> {
        self.expect_real(a, "to_fp")?;
        if !matches!(sort, Sort::Float { .. }) {
            return Err(IrError::SortMismatch {
                context: "to_fp target sort must be FloatingPoint".to_string(),
            });
        }
        Ok(self.intern(Term {
            op: Op::RealToFp,
            children: vec![a],
            sort,
        }))
    }

    // ------------------------------------------------------------------
    // Bounded integers
    // ------------------------------------------------------------------

    fn expect_int(&self, id: TermId, context: &str) -> Result<(i64, i64)> {
        match self.sort(id) {
            Sort::BoundedInt { lo, hi } => Ok((lo, hi)),
            other => Err(IrError::SortMismatch {
                context: format!("{context}: expected BoundedInt, got {other}"),
            }),
        }
    }

    /// Bounded-integer addition; the result bound is the interval sum.
    pub fn mk_int_add(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        let (alo, ahi) = self.expect_int(a, "int add")?;
        let (blo, bhi) = self.expect_int(b, "int add")?;
        Ok(self.intern(Term {
            op: Op::IntAdd,
            children: vec![a, b],
            sort: Sort::BoundedInt {
                lo: alo.saturating_add(blo),
                hi: ahi.saturating_add(bhi),
            },
        }))
    }

    /// Bounded-integer less-or-equal.
    pub fn mk_int_le(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_int(a, "int le")?;
        self.expect_int(b, "int le")?;
        Ok(self.intern(Term {
            op: Op::IntLe,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    /// Bounded-integer less-than.
    pub fn mk_int_lt(&mut self, a: TermId, b: TermId) -> Result<TermId> {
        self.expect_int(a, "int lt")?;
        self.expect_int(b, "int lt")?;
        Ok(self.intern(Term {
            op: Op::IntLt,
            children: vec![a, b],
            sort: Sort::Bool,
        }))
    }

    // ------------------------------------------------------------------
    // Arrays and uninterpreted functions
    // ------------------------------------------------------------------

    /// Array read `(select a i)`.
    pub fn mk_select(&mut self, array: TermId, index: TermId) -> Result<TermId> {
        match self.sort(array) {
            Sort::Array {
                index: isort,
                element,
            } => {
                if *isort != self.sort(index) {
                    return Err(IrError::SortMismatch {
                        context: format!(
                            "select index: expected {isort}, got {}",
                            self.sort(index)
                        ),
                    });
                }
                Ok(self.intern(Term {
                    op: Op::Select,
                    children: vec![array, index],
                    sort: *element,
                }))
            }
            other => Err(IrError::SortMismatch {
                context: format!("select on non-array sort {other}"),
            }),
        }
    }

    /// Array write `(store a i v)`.
    pub fn mk_store(&mut self, array: TermId, index: TermId, value: TermId) -> Result<TermId> {
        let sort = self.sort(array);
        match &sort {
            Sort::Array {
                index: isort,
                element,
            } => {
                if **isort != self.sort(index) || **element != self.sort(value) {
                    return Err(IrError::SortMismatch {
                        context: "store index/value sorts do not match array sort".to_string(),
                    });
                }
                Ok(self.intern(Term {
                    op: Op::Store,
                    children: vec![array, index, value],
                    sort,
                }))
            }
            other => Err(IrError::SortMismatch {
                context: format!("store on non-array sort {other}"),
            }),
        }
    }

    /// Application of a previously declared uninterpreted function.
    pub fn mk_apply(&mut self, fun: u32, args: Vec<TermId>) -> Result<TermId> {
        let decl = self.fun_decl(fun).clone();
        if decl.args.len() != args.len() {
            return Err(IrError::SortMismatch {
                context: format!(
                    "{} expects {} arguments, got {}",
                    decl.name,
                    decl.args.len(),
                    args.len()
                ),
            });
        }
        for (expected, &actual) in decl.args.iter().zip(&args) {
            if *expected != self.sort(actual) {
                return Err(IrError::SortMismatch {
                    context: format!(
                        "{}: argument sort {} expected, got {}",
                        decl.name,
                        expected,
                        self.sort(actual)
                    ),
                });
            }
        }
        Ok(self.intern(Term {
            op: Op::Apply(fun),
            children: args,
            sort: decl.ret,
        }))
    }

    // ------------------------------------------------------------------
    // Traversal utilities
    // ------------------------------------------------------------------

    /// Collects all distinct variables reachable from `roots`, in a
    /// deterministic (id) order.
    pub fn vars_of(&self, roots: &[TermId]) -> Vec<TermId> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<TermId> = roots.to_vec();
        let mut vars = Vec::new();
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            if matches!(self.op(t), Op::Var(_)) {
                vars.push(t);
            }
            stack.extend(self.children(t).iter().copied());
        }
        vars.sort();
        vars
    }

    /// Creates a copy of `root` in which every variable is replaced by a
    /// fresh variable whose name is suffixed with `suffix`.
    ///
    /// Used by the CDM baseline, which self-composes the formula.
    /// Returns the copied root along with the mapping from original to fresh
    /// variables.
    pub fn clone_with_fresh_vars(
        &mut self,
        root: TermId,
        suffix: &str,
    ) -> (TermId, HashMap<TermId, TermId>) {
        let vars = self.vars_of(&[root]);
        let mut map = HashMap::new();
        for v in vars {
            let name = format!("{}@{}", self.var_name(v).unwrap_or("v"), suffix);
            let sort = self.sort(v);
            let fresh = self.mk_var(&name, sort);
            map.insert(v, fresh);
        }
        let copied = self.substitute(root, &map);
        (copied, map)
    }

    /// Substitutes terms bottom-up: every occurrence of a key in `map` is
    /// replaced by its value.
    pub fn substitute(&mut self, root: TermId, map: &HashMap<TermId, TermId>) -> TermId {
        let mut cache: HashMap<TermId, TermId> = map.clone();
        self.substitute_rec(root, &mut cache)
    }

    fn substitute_rec(&mut self, t: TermId, cache: &mut HashMap<TermId, TermId>) -> TermId {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let term = self.term(t).clone();
        if term.children.is_empty() {
            cache.insert(t, t);
            return t;
        }
        let new_children: Vec<TermId> = term
            .children
            .iter()
            .map(|&c| self.substitute_rec(c, cache))
            .collect();
        let result = if new_children == term.children {
            t
        } else {
            self.intern(Term {
                op: term.op,
                children: new_children,
                sort: term.sort,
            })
        };
        cache.insert(t, result);
        result
    }

    /// Evaluates a term under a variable assignment.
    ///
    /// Returns `None` if the term contains operators that cannot be evaluated
    /// without theory-specific reasoning (arrays, uninterpreted functions,
    /// floating point arithmetic) or if a variable is missing from the
    /// assignment.
    pub fn eval(&self, t: TermId, assignment: &HashMap<TermId, Value>) -> Option<Value> {
        match self.op(t).clone() {
            Op::Var(_) => assignment.get(&t).cloned(),
            Op::BoolConst(b) => Some(Value::Bool(b)),
            Op::BvConst(v) => Some(Value::Bv(v)),
            Op::RealConst(r) => Some(Value::Real(r)),
            Op::IntConst(i) => Some(Value::Int(i)),
            Op::Not => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bool()?;
                Some(Value::Bool(!a))
            }
            Op::And => {
                let mut acc = true;
                for &c in self.children(t) {
                    acc &= self.eval(c, assignment)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            Op::Or => {
                let mut acc = false;
                for &c in self.children(t) {
                    acc |= self.eval(c, assignment)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            Op::Xor => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bool()?;
                let b = self.eval(self.children(t)[1], assignment)?.as_bool()?;
                Some(Value::Bool(a ^ b))
            }
            Op::Implies => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bool()?;
                let b = self.eval(self.children(t)[1], assignment)?.as_bool()?;
                Some(Value::Bool(!a || b))
            }
            Op::Ite => {
                let c = self.eval(self.children(t)[0], assignment)?.as_bool()?;
                let branch = if c {
                    self.children(t)[1]
                } else {
                    self.children(t)[2]
                };
                self.eval(branch, assignment)
            }
            Op::Eq => {
                let a = self.eval(self.children(t)[0], assignment)?;
                let b = self.eval(self.children(t)[1], assignment)?;
                Some(Value::Bool(a == b))
            }
            Op::Distinct => {
                let vals: Option<Vec<Value>> = self
                    .children(t)
                    .iter()
                    .map(|&c| self.eval(c, assignment))
                    .collect();
                let vals = vals?;
                for i in 0..vals.len() {
                    for j in i + 1..vals.len() {
                        if vals[i] == vals[j] {
                            return Some(Value::Bool(false));
                        }
                    }
                }
                Some(Value::Bool(true))
            }
            Op::BvNot => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                Some(Value::Bv(BvValue::new(!a.as_u128(), a.width())))
            }
            Op::BvNeg => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                Some(Value::Bv(BvValue::new(
                    a.as_u128().wrapping_neg(),
                    a.width(),
                )))
            }
            Op::BvAdd
            | Op::BvSub
            | Op::BvMul
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
            | Op::BvUdiv
            | Op::BvUrem
            | Op::BvShl
            | Op::BvLshr
            | Op::BvAshr => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                let b = self.eval(self.children(t)[1], assignment)?.as_bv()?;
                let w = a.width();
                let bits = match self.op(t) {
                    Op::BvAdd => a.as_u128().wrapping_add(b.as_u128()),
                    Op::BvSub => a.as_u128().wrapping_sub(b.as_u128()),
                    Op::BvMul => a.as_u128().wrapping_mul(b.as_u128()),
                    Op::BvAnd => a.as_u128() & b.as_u128(),
                    Op::BvOr => a.as_u128() | b.as_u128(),
                    Op::BvXor => a.as_u128() ^ b.as_u128(),
                    Op::BvUdiv => {
                        if b.as_u128() == 0 {
                            u128::MAX
                        } else {
                            a.as_u128() / b.as_u128()
                        }
                    }
                    Op::BvUrem => {
                        if b.as_u128() == 0 {
                            a.as_u128()
                        } else {
                            a.as_u128() % b.as_u128()
                        }
                    }
                    Op::BvShl => {
                        let s = b.as_u128().min(127) as u32;
                        if s >= w {
                            0
                        } else {
                            a.as_u128() << s
                        }
                    }
                    Op::BvLshr => {
                        let s = b.as_u128().min(127) as u32;
                        if s >= w {
                            0
                        } else {
                            a.as_u128() >> s
                        }
                    }
                    Op::BvAshr => {
                        let s = b.as_u128().min(127) as u32;
                        let signed = a.as_i128();
                        if s >= w {
                            if signed < 0 {
                                u128::MAX
                            } else {
                                0
                            }
                        } else {
                            (signed >> s) as u128
                        }
                    }
                    _ => unreachable!(),
                };
                Some(Value::Bv(BvValue::new(bits, w)))
            }
            Op::BvConcat => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                let b = self.eval(self.children(t)[1], assignment)?.as_bv()?;
                Some(Value::Bv(a.concat(&b)))
            }
            Op::BvExtract { hi, lo } => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                Some(Value::Bv(a.extract(hi, lo)))
            }
            Op::BvZeroExtend(by) => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                Some(Value::Bv(BvValue::new(a.as_u128(), a.width() + by)))
            }
            Op::BvSignExtend(by) => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                let w = a.width() + by;
                let v = a.as_i128();
                let bits = if v < 0 {
                    (v as u128)
                        & (if w >= 128 {
                            u128::MAX
                        } else {
                            (1u128 << w) - 1
                        })
                } else {
                    v as u128
                };
                Some(Value::Bv(BvValue::new(bits, w)))
            }
            Op::BvUlt | Op::BvUle | Op::BvSlt | Op::BvSle => {
                let a = self.eval(self.children(t)[0], assignment)?.as_bv()?;
                let b = self.eval(self.children(t)[1], assignment)?.as_bv()?;
                let r = match self.op(t) {
                    Op::BvUlt => a.as_u128() < b.as_u128(),
                    Op::BvUle => a.as_u128() <= b.as_u128(),
                    Op::BvSlt => a.as_i128() < b.as_i128(),
                    Op::BvSle => a.as_i128() <= b.as_i128(),
                    _ => unreachable!(),
                };
                Some(Value::Bool(r))
            }
            Op::RealAdd => {
                let mut acc = Rational::ZERO;
                for &c in self.children(t) {
                    match self.eval(c, assignment)? {
                        Value::Real(r) => acc += r,
                        _ => return None,
                    }
                }
                Some(Value::Real(acc))
            }
            Op::RealSub => {
                let a = self.eval_real(self.children(t)[0], assignment)?;
                let b = self.eval_real(self.children(t)[1], assignment)?;
                Some(Value::Real(a - b))
            }
            Op::RealMul => {
                let a = self.eval_real(self.children(t)[0], assignment)?;
                let b = self.eval_real(self.children(t)[1], assignment)?;
                Some(Value::Real(a * b))
            }
            Op::RealNeg => {
                let a = self.eval_real(self.children(t)[0], assignment)?;
                Some(Value::Real(-a))
            }
            Op::RealLt => {
                let a = self.eval_real(self.children(t)[0], assignment)?;
                let b = self.eval_real(self.children(t)[1], assignment)?;
                Some(Value::Bool(a < b))
            }
            Op::RealLe => {
                let a = self.eval_real(self.children(t)[0], assignment)?;
                let b = self.eval_real(self.children(t)[1], assignment)?;
                Some(Value::Bool(a <= b))
            }
            Op::IntAdd => {
                let a = self.eval_int(self.children(t)[0], assignment)?;
                let b = self.eval_int(self.children(t)[1], assignment)?;
                Some(Value::Int(a + b))
            }
            Op::IntLe => {
                let a = self.eval_int(self.children(t)[0], assignment)?;
                let b = self.eval_int(self.children(t)[1], assignment)?;
                Some(Value::Bool(a <= b))
            }
            Op::IntLt => {
                let a = self.eval_int(self.children(t)[0], assignment)?;
                let b = self.eval_int(self.children(t)[1], assignment)?;
                Some(Value::Bool(a < b))
            }
            // Theory-specific reasoning required; not evaluable here.
            Op::FpAdd
            | Op::FpSub
            | Op::FpMul
            | Op::FpNeg
            | Op::FpEq
            | Op::FpLt
            | Op::FpLe
            | Op::FpToReal
            | Op::RealToFp
            | Op::Select
            | Op::Store
            | Op::Apply(_) => None,
        }
    }

    fn eval_real(&self, t: TermId, assignment: &HashMap<TermId, Value>) -> Option<Rational> {
        match self.eval(t, assignment)? {
            Value::Real(r) => Some(r),
            _ => None,
        }
    }

    fn eval_int(&self, t: TermId, assignment: &HashMap<TermId, Value>) -> Option<i64> {
        match self.eval(t, assignment)? {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_ids() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let y = tm.mk_var("y", Sort::BitVec(8));
        let a = tm.mk_bv_add(x, y).unwrap();
        let b = tm.mk_bv_add(x, y).unwrap();
        assert_eq!(a, b);
        let c = tm.mk_bv_add(y, x).unwrap();
        assert_ne!(a, c); // bvadd is not canonicalised by argument order
    }

    #[test]
    fn boolean_folding() {
        let mut tm = TermManager::new();
        let t = tm.mk_true();
        let f = tm.mk_false();
        let p = tm.mk_var("p", Sort::Bool);
        assert_eq!(tm.mk_and([t, p]), p);
        assert_eq!(tm.mk_and([f, p]), f);
        assert_eq!(tm.mk_or([t, p]), t);
        assert_eq!(tm.mk_or([f, p]), p);
        let np = tm.mk_not(p);
        assert_eq!(tm.mk_not(np), p);
        assert_eq!(tm.mk_not(t), f);
    }

    #[test]
    fn equality_folding() {
        let mut tm = TermManager::new();
        let a = tm.mk_bv_const(3, 8);
        let b = tm.mk_bv_const(3, 8);
        let c = tm.mk_bv_const(4, 8);
        assert_eq!(tm.mk_eq(a, b), tm.mk_true());
        assert_eq!(tm.mk_eq(a, c), tm.mk_false());
        let x = tm.mk_var("x", Sort::BitVec(8));
        assert_eq!(tm.mk_eq(x, x), tm.mk_true());
    }

    #[test]
    fn bv_constant_folding() {
        let mut tm = TermManager::new();
        let a = tm.mk_bv_const(200, 8);
        let b = tm.mk_bv_const(100, 8);
        let sum = tm.mk_bv_add(a, b).unwrap();
        assert_eq!(tm.op(sum), &Op::BvConst(BvValue::new(44, 8)));
        let lt = tm.mk_bv_ult(b, a).unwrap();
        assert_eq!(lt, tm.mk_true());
        let slt = tm.mk_bv_slt(a, b).unwrap(); // 200 is -56 signed
        assert_eq!(slt, tm.mk_true());
    }

    #[test]
    fn sort_errors_are_reported() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let y = tm.mk_var("y", Sort::BitVec(4));
        assert!(tm.mk_bv_add(x, y).is_err());
        let r = tm.mk_var("r", Sort::Real);
        assert!(tm.mk_bv_add(x, r).is_err());
        assert!(tm.mk_real_lt(x, r).is_err());
    }

    #[test]
    fn vars_of_collects_reachable_variables() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let y = tm.mk_var("y", Sort::BitVec(8));
        let _z = tm.mk_var("z", Sort::BitVec(8));
        let sum = tm.mk_bv_add(x, y).unwrap();
        let c = tm.mk_bv_const(7, 8);
        let f = tm.mk_eq(sum, c);
        let vars = tm.vars_of(&[f]);
        assert_eq!(vars, vec![x, y]);
    }

    #[test]
    fn clone_with_fresh_vars_renames_everything() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(7, 8);
        let f = tm.mk_bv_ult(x, c).unwrap();
        let (g, map) = tm.clone_with_fresh_vars(f, "copy1");
        assert_ne!(f, g);
        let fresh = map[&x];
        assert_eq!(tm.var_name(fresh), Some("x@copy1"));
        assert_eq!(tm.sort(fresh), Sort::BitVec(8));
    }

    #[test]
    fn eval_mixed_formula() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let r = tm.mk_var("r", Sort::Real);
        let c = tm.mk_bv_const(10, 8);
        let lt = tm.mk_bv_ult(x, c).unwrap();
        let half = tm.mk_real_const(Rational::new(1, 2));
        let rle = tm.mk_real_le(r, half).unwrap();
        let f = tm.mk_and([lt, rle]);

        let mut asg = HashMap::new();
        asg.insert(x, Value::Bv(BvValue::new(5, 8)));
        asg.insert(r, Value::Real(Rational::new(1, 4)));
        assert_eq!(tm.eval(f, &asg), Some(Value::Bool(true)));

        asg.insert(x, Value::Bv(BvValue::new(200, 8)));
        assert_eq!(tm.eval(f, &asg), Some(Value::Bool(false)));
    }

    #[test]
    fn ite_and_extract() {
        let mut tm = TermManager::new();
        let p = tm.mk_var("p", Sort::Bool);
        let a = tm.mk_bv_const(0xAB, 8);
        let b = tm.mk_bv_const(0xCD, 8);
        let ite = tm.mk_ite(p, a, b).unwrap();
        assert_eq!(tm.sort(ite), Sort::BitVec(8));
        let hi = tm.mk_bv_extract(a, 7, 4).unwrap();
        assert_eq!(tm.op(hi), &Op::BvConst(BvValue::new(0xA, 4)));
        assert!(tm.mk_bv_extract(a, 8, 0).is_err());
    }

    #[test]
    fn uninterpreted_functions() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", vec![Sort::BitVec(8)], Sort::BitVec(8));
        let x = tm.mk_var("x", Sort::BitVec(8));
        let fx = tm.mk_apply(f, vec![x]).unwrap();
        assert_eq!(tm.sort(fx), Sort::BitVec(8));
        let r = tm.mk_var("r", Sort::Real);
        assert!(tm.mk_apply(f, vec![r]).is_err());
        assert!(tm.mk_apply(f, vec![x, x]).is_err());
    }

    #[test]
    fn snapshot_preserves_ids_and_interning() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(3, 8);
        let sum = tm.mk_bv_add(x, c).unwrap();
        let before = tm.len();

        let snap = tm.snapshot();
        assert_eq!(snap.len(), before);

        // The originating manager keeps resolving and deduping ids.
        assert_eq!(tm.len(), before);
        assert_eq!(tm.mk_bv_add(x, c).unwrap(), sum);
        assert_eq!(tm.op(sum), &Op::BvAdd);
        assert_eq!(tm.var_name(x), Some("x"));

        // A manager built from the snapshot sees the identical store.
        let shared = TermManager::from_snapshot(snap);
        assert_eq!(shared.len(), before);
        assert_eq!(shared.find_var("x"), Some(x));
        assert_eq!(shared.term(sum), tm.term(sum));
        assert_eq!(shared.sort(sum), Sort::BitVec(8));
    }

    #[test]
    fn snapshot_of_unchanged_store_is_shared() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::Bool);
        let first = tm.snapshot();
        let second = tm.snapshot();
        assert!(Arc::ptr_eq(&first, &second));

        // Interning something new forces a fresh snapshot that still
        // contains the whole frozen prefix.
        let y = tm.mk_var("y", Sort::Bool);
        let third = tm.snapshot();
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(third.len(), 2); // x and y
        let shared = TermManager::from_snapshot(third);
        assert_eq!(shared.find_var("x"), Some(x));
        assert_eq!(shared.find_var("y"), Some(y));
    }

    #[test]
    fn managers_from_one_snapshot_allocate_identical_tails() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let snap = tm.snapshot();

        fn build(mut m: TermManager, x: TermId) -> (TermId, TermId, TermId, usize) {
            let c = m.mk_bv_const(5, 4);
            let eq = m.mk_eq(x, c);
            let not = m.mk_not(eq);
            (c, eq, not, m.len())
        }
        let a = build(TermManager::from_snapshot(Arc::clone(&snap)), x);
        let b = build(TermManager::from_snapshot(snap), x);
        assert_eq!(a, b, "identical construction yields identical ids");
    }

    #[test]
    fn fresh_vars_stay_fresh_across_snapshots() {
        let mut tm = TermManager::new();
        let f0 = tm.mk_fresh_var("tmp", Sort::Bool);
        let snap = tm.snapshot();
        let f1 = tm.mk_fresh_var("tmp", Sort::Bool);
        assert_ne!(tm.var_name(f0), tm.var_name(f1));

        // A sharing manager continues the same fresh-name sequence and so
        // cannot collide with names minted before the snapshot.
        let mut shared = TermManager::from_snapshot(snap);
        let g = shared.mk_fresh_var("tmp", Sort::Bool);
        assert_ne!(shared.var_name(g), shared.var_name(f0));
    }

    #[test]
    fn app_vars_are_memoised_and_never_alias_declared_names() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let y = tm.mk_var("y", Sort::BitVec(4));
        let f = tm.declare_fun("f", vec![Sort::BitVec(4)], Sort::Bool);
        let fx = tm.mk_app_var(AppHead::Fun(f), &[x], Sort::Bool);
        let len = tm.len();
        assert_eq!(tm.mk_app_var(AppHead::Fun(f), &[x], Sort::Bool), fx);
        assert_eq!(tm.len(), len, "a repeated application interns nothing");
        assert_ne!(tm.mk_app_var(AppHead::Fun(f), &[y], Sort::Bool), fx);
        // The display name is not in the name table: declaring it makes a
        // distinct user variable instead of returning the result variable.
        let name = tm.var_name(fx).unwrap().to_string();
        assert_eq!(tm.find_var(&name), None);
        let user = tm.mk_var(&name, Sort::Bool);
        assert_ne!(user, fx);
        // The memo survives a snapshot.
        let snap = tm.snapshot();
        let mut shared = TermManager::from_snapshot(snap);
        assert_eq!(shared.mk_app_var(AppHead::Fun(f), &[x], Sort::Bool), fx);
    }

    #[test]
    fn snapshot_keeps_function_declarations() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", vec![Sort::BitVec(4)], Sort::Bool);
        let snap = tm.snapshot();
        let mut shared = TermManager::from_snapshot(snap);
        assert_eq!(shared.find_fun("f"), Some(f));
        assert_eq!(shared.fun_decl(f).name, "f");
        let g = shared.declare_fun("g", vec![], Sort::Bool);
        assert_ne!(f, g);
        assert_eq!(shared.fun_decl(g).name, "g");
    }
}
