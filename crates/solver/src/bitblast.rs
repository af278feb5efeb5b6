//! Bit-blasting encoder: hybrid SMT terms → CNF + XOR + theory atoms.
//!
//! Discrete structure (booleans, bit-vectors, bounded integers) is encoded
//! eagerly into the CDCL solver with Tseitin-style circuits; a gate with a
//! constant input folds instead of allocating a variable, and division by
//! a constant is encoded linearly (`Encoder::bv_divrem_const`).  Continuous
//! atoms (real and relaxed floating-point comparisons) become fresh boolean
//! abstraction literals whose theory meaning is recorded as
//! [`TheoryAtom`]s; the lazy DPLL(T) loop of [`crate::IncrementalContext`]
//! checks their conjunction with the simplex core.

use pact_ir::fxhash::FxHashMap;
use pact_ir::{BvValue, Op, Sort, TermId, TermManager};
use pact_lra::{Constraint, LinExpr, LraVar, Relation};
use pact_sat::{Lit, Solver, Var};

use crate::dpllt::TheoryMemo;
use crate::error::{Result, SolverError};

/// A boolean abstraction literal together with its theory meaning.
#[derive(Debug, Clone)]
pub struct TheoryAtom {
    /// The literal standing for the atom in the CNF encoding.
    pub lit: Lit,
    /// Constraint that must hold when the literal is true.
    pub when_true: Constraint,
    /// Constraint that must hold when the literal is false (absent for
    /// equalities, whose negation is covered by auxiliary `<` / `>` atoms).
    pub when_false: Option<Constraint>,
}

/// The bit-blasting encoder.
///
/// Owns the underlying SAT solver; the DPLL(T) driver adds theory lemmas and
/// queries models through it.
#[derive(Debug, Default)]
pub struct Encoder {
    sat: Solver,
    true_lit: Option<Lit>,
    bool_map: FxHashMap<TermId, Lit>,
    bv_map: FxHashMap<TermId, Vec<Lit>>,
    int_map: FxHashMap<TermId, Vec<Lit>>,
    real_var_map: FxHashMap<TermId, LraVar>,
    real_expr_cache: FxHashMap<TermId, LinExpr>,
    atoms: Vec<TheoryAtom>,
    atom_of_term: FxHashMap<TermId, Lit>,
    num_lra_vars: u32,
    /// The DPLL(T) loop's last theory-consistent assignment.
    pub(crate) theory_memo: TheoryMemo,
    /// Reused buffer of [`Encoder::assert_blocking_clause`].
    blocking: Vec<Lit>,
}

impl Encoder {
    /// Creates an empty encoder with a fresh SAT solver.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an empty encoder whose SAT solver uses the given
    /// diversification options (see [`pact_sat::SatOptions`]); used by the
    /// portfolio oracle to build workers that search differently.
    pub fn with_options(opts: pact_sat::SatOptions) -> Self {
        Encoder {
            sat: Solver::with_options(opts),
            ..Encoder::default()
        }
    }

    /// The underlying SAT solver (for solving and model extraction).
    pub fn sat(&mut self) -> &mut Solver {
        &mut self.sat
    }

    /// Search statistics of the underlying SAT solver, without requiring a
    /// mutable borrow (used by the oracles' cumulative conflict accounting).
    pub fn sat_stats(&self) -> pact_sat::SatStats {
        self.sat.stats()
    }

    /// The registered theory atoms.
    pub fn atoms(&self) -> &[TheoryAtom] {
        &self.atoms
    }

    /// The most recent satisfying assignment of the SAT solver, without
    /// requiring a mutable borrow.
    pub(crate) fn sat_model(&self) -> &[bool] {
        self.sat.model()
    }

    /// Number of real (LRA) theory variables allocated so far.
    pub fn num_lra_vars(&self) -> usize {
        self.num_lra_vars as usize
    }

    /// The LRA variable backing a real- or float-sorted IR variable, if it
    /// was encoded.
    pub fn lra_var(&self, t: TermId) -> Option<LraVar> {
        self.real_var_map.get(&t).copied()
    }

    // ------------------------------------------------------------------
    // Low-level gates
    // ------------------------------------------------------------------

    fn fresh(&mut self) -> Lit {
        self.sat.new_var().positive()
    }

    /// A literal that is constrained to be true.
    fn true_lit(&mut self) -> Lit {
        match self.true_lit {
            Some(l) => l,
            None => {
                let l = self.fresh();
                self.sat.add_clause(&[l]);
                self.true_lit = Some(l);
                l
            }
        }
    }

    fn false_lit(&mut self) -> Lit {
        !self.true_lit()
    }

    fn lit_of_bool(&mut self, b: bool) -> Lit {
        if b {
            self.true_lit()
        } else {
            self.false_lit()
        }
    }

    /// The value of `l` when it is the true literal or its negation.
    ///
    /// The gates below fold such inputs instead of allocating a variable.
    /// This is sound in every frame: `true_lit` is a level-0 unit, and a
    /// compaction discards the whole encoder, `true_lit` included.
    fn const_value(&self, l: Lit) -> Option<bool> {
        let t = self.true_lit?;
        if l == t {
            Some(true)
        } else if l == !t {
            Some(false)
        } else {
            None
        }
    }

    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let g = self.fresh();
        self.sat.add_clause(&[!g, a]);
        self.sat.add_clause(&[!g, b]);
        self.sat.add_clause(&[g, !a, !b]);
        g
    }

    fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and2(!a, !b)
    }

    fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(c) = self.const_value(a) {
            return if c { !b } else { b };
        }
        if let Some(c) = self.const_value(b) {
            return if c { !a } else { a };
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit();
        }
        let g = self.fresh();
        self.sat.add_clause(&[!g, a, b]);
        self.sat.add_clause(&[!g, !a, !b]);
        self.sat.add_clause(&[g, !a, b]);
        self.sat.add_clause(&[g, a, !b]);
        g
    }

    fn xnor2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor2(a, b)
    }

    /// `if sel then a else b`.
    fn mux(&mut self, sel: Lit, a: Lit, b: Lit) -> Lit {
        if let Some(s) = self.const_value(sel) {
            return if s { a } else { b };
        }
        if a == b {
            return a;
        }
        // One constant arm leaves an AND or an OR with the selector.
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), Some(false)) => return sel,
            (Some(false), Some(true)) => return !sel,
            (Some(true), None) => return self.or2(sel, b),
            (Some(false), None) => return self.and2(!sel, b),
            (None, Some(true)) => return self.or2(!sel, a),
            (None, Some(false)) => return self.and2(sel, a),
            _ => {}
        }
        let g = self.fresh();
        self.sat.add_clause(&[!g, !sel, a]);
        self.sat.add_clause(&[!g, sel, b]);
        self.sat.add_clause(&[g, !sel, !a]);
        self.sat.add_clause(&[g, sel, !b]);
        g
    }

    fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut open = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.const_value(l) {
                Some(false) => return self.false_lit(),
                Some(true) => {}
                None => open.push(l),
            }
        }
        match open.len() {
            0 => self.true_lit(),
            1 => open[0],
            _ => {
                let g = self.fresh();
                let mut long = vec![g];
                for &l in &open {
                    self.sat.add_clause(&[!g, l]);
                    long.push(!l);
                }
                self.sat.add_clause(&long);
                g
            }
        }
    }

    fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&negated)
    }

    // ------------------------------------------------------------------
    // Bit-vector circuits (all vectors are LSB first)
    // ------------------------------------------------------------------

    fn const_bits(&mut self, value: &BvValue) -> Vec<Lit> {
        (0..value.width())
            .map(|i| self.lit_of_bool(value.bit(i)))
            .collect()
    }

    fn ripple_add(&mut self, a: &[Lit], b: &[Lit], carry_in: Lit) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.xor2(a[i], b[i]);
            let sum = self.xor2(axb, carry);
            let c1 = self.and2(a[i], b[i]);
            let c2 = self.and2(axb, carry);
            carry = self.or2(c1, c2);
            out.push(sum);
        }
        out
    }

    fn bv_add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let f = self.false_lit();
        self.ripple_add(a, b, f)
    }

    fn bv_not(&mut self, a: &[Lit]) -> Vec<Lit> {
        a.iter().map(|&l| !l).collect()
    }

    fn bv_neg(&mut self, a: &[Lit]) -> Vec<Lit> {
        let na = self.bv_not(a);
        let zero = vec![self.false_lit(); a.len()];
        let t = self.true_lit();
        self.ripple_add(&na, &zero, t)
    }

    fn bv_sub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb = self.bv_not(b);
        let t = self.true_lit();
        self.ripple_add(a, &nb, t)
    }

    fn bv_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.false_lit(); w];
        for i in 0..w {
            // addend = (a << i) AND-masked by b[i]
            let mut addend = vec![self.false_lit(); w];
            for j in 0..w - i {
                addend[i + j] = self.and2(a[j], b[i]);
            }
            acc = self.bv_add(&acc, &addend);
        }
        acc
    }

    fn bv_ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Iterate from LSB to MSB: lt_i = if a_i ≡ b_i then lt_{i-1} else b_i.
        // Against a constant `b` each bit costs one AND or OR gate.
        let mut lt = self.false_lit();
        for i in 0..a.len() {
            let eq = self.xnor2(a[i], b[i]);
            lt = self.mux(eq, lt, b[i]);
        }
        lt
    }

    fn bv_ule(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        !self.bv_ult(b, a)
    }

    fn bv_slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Flip the sign bits and compare unsigned.
        let w = a.len();
        let mut a2 = a.to_vec();
        let mut b2 = b.to_vec();
        a2[w - 1] = !a2[w - 1];
        b2[w - 1] = !b2[w - 1];
        self.bv_ult(&a2, &b2)
    }

    fn bv_sle(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        !self.bv_slt(b, a)
    }

    fn bv_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| self.xnor2(x, y)).collect();
        self.and_many(&bits)
    }

    fn bv_mux(&mut self, sel: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    fn bv_shift(&mut self, a: &[Lit], shift: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let fill_top = match kind {
            ShiftKind::Ashr => a[w - 1],
            _ => self.false_lit(),
        };
        let mut result = a.to_vec();
        // Barrel shifter over the shift bits that are within range.
        let mut stages = 0;
        while (1usize << stages) < w {
            stages += 1;
        }
        for (s, &shift_bit) in shift.iter().enumerate().take(stages) {
            let amount = 1usize << s;
            let mut shifted = Vec::with_capacity(w);
            for i in 0..w {
                let src = match kind {
                    ShiftKind::Shl => {
                        if i >= amount {
                            result[i - amount]
                        } else {
                            self.false_lit()
                        }
                    }
                    ShiftKind::Lshr | ShiftKind::Ashr => {
                        if i + amount < w {
                            result[i + amount]
                        } else {
                            fill_top
                        }
                    }
                };
                shifted.push(src);
            }
            result = self.bv_mux(shift_bit, &shifted, &result);
        }
        // If any shift bit at or above `stages` is set the result saturates.
        if shift.len() > stages {
            let high = self.or_many(&shift[stages..]);
            let saturated: Vec<Lit> = match kind {
                ShiftKind::Shl | ShiftKind::Lshr => vec![self.false_lit(); w],
                ShiftKind::Ashr => vec![fill_top; w],
            };
            result = self.bv_mux(high, &saturated, &result);
        }
        result
    }

    /// Restoring division producing `(quotient, remainder)`, with the SMT-LIB
    /// convention for division by zero (`a / 0 = all-ones`, `a % 0 = a`).
    fn bv_divrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let mut remainder = vec![self.false_lit(); w];
        let mut quotient = vec![self.false_lit(); w];
        for i in (0..w).rev() {
            // remainder = (remainder << 1) | a[i]
            let mut shifted = Vec::with_capacity(w);
            shifted.push(a[i]);
            shifted.extend_from_slice(&remainder[..w - 1]);
            remainder = shifted;
            let ge = self.bv_ule(b, &remainder);
            let diff = self.bv_sub(&remainder, b);
            remainder = self.bv_mux(ge, &diff, &remainder);
            quotient[i] = ge;
        }
        let b_nonzero = self.or_many(b);
        let all_ones = vec![self.true_lit(); w];
        let quotient = self.bv_mux(b_nonzero, &quotient, &all_ones);
        let remainder = self.bv_mux(b_nonzero, &remainder, a);
        (quotient, remainder)
    }

    /// The value of a bit-vector whose bits are all constant.
    fn const_word(&self, bits: &[Lit]) -> Option<u128> {
        if bits.len() > u128::BITS as usize {
            return None;
        }
        bits.iter().enumerate().try_fold(0u128, |acc, (i, &l)| {
            self.const_value(l).map(|bit| acc | (u128::from(bit) << i))
        })
    }

    /// `(quotient, remainder)` of `a` by a constant `p ≠ 0`, encoded
    /// linearly: fresh `q` and `r` with `zext(a) = q·p + zext(r)` and
    /// `r <ᵤ p`, where `q·p` is a shift-add over the set bits of `p`.
    ///
    /// `q` gets the bits of `⌊(2ʷ−1)/p⌋` and `r` those of `p − 1`.  The
    /// sum is taken at width `|q| + |p|`, where even the largest
    /// representable `q` and `r` give `q·p + r ≤ (2^|q| − 1)(2^|p| − 1) +
    /// 2^|p| − 1 < 2^(|q|+|p|)`: nothing wraps, so the equation holds over
    /// the integers and `q`, `r` are the true quotient and remainder.  That
    /// width also exceeds `w`, because `(⌊(2ʷ−1)/p⌋ + 1)·p ≥ 2ʷ`.
    ///
    /// The clauses are unguarded definitions, like a Tseitin gate's: `q`
    /// and `r` are total functions of `a`, so they constrain nothing else.
    fn bv_divrem_const(&mut self, a: &[Lit], p: u128) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let width_of = |v: u128| (u128::BITS - v.leading_zeros()) as usize;
        let q_max = (u128::MAX >> (u128::BITS as usize - w)) / p;
        let wide = width_of(q_max) + width_of(p);
        debug_assert!(wide > w);
        let q: Vec<Lit> = (0..width_of(q_max)).map(|_| self.fresh()).collect();
        let r: Vec<Lit> = (0..width_of(p - 1)).map(|_| self.fresh()).collect();
        let r_wide = self.widen(r.clone(), width_of(p));
        let mut sum = self.widen(r_wide.clone(), wide);
        for shift in (0..width_of(p)).filter(|&i| p >> i & 1 == 1) {
            let mut addend = vec![self.false_lit(); shift];
            addend.extend_from_slice(&q);
            let addend = self.widen(addend, wide);
            sum = self.bv_add(&sum, &addend);
        }
        let f = self.false_lit();
        for (i, &s) in sum.iter().enumerate() {
            let bit = a.get(i).copied().unwrap_or(f);
            self.sat.add_clause(&[!s, bit]);
            self.sat.add_clause(&[s, !bit]);
        }
        let p_bits = self.const_bits(&BvValue::new(p, width_of(p) as u32));
        let below_p = self.bv_ult(&r_wide, &p_bits);
        self.sat.add_clause(&[below_p]);
        (self.widen(q, w), self.widen(r, w))
    }

    // ------------------------------------------------------------------
    // Term encoding
    // ------------------------------------------------------------------

    /// Encodes and asserts a boolean term.
    pub fn assert_term(&mut self, tm: &TermManager, t: TermId) -> Result<()> {
        let lit = self.encode_bool(tm, t)?;
        self.sat.add_clause(&[lit]);
        Ok(())
    }

    /// Recognises the model-blocking pattern `¬(v₁ = c₁ ∧ … ∧ vₙ = cₙ)` —
    /// boolean and bit-vector variables against constants — in an asserted
    /// *term* and emits it through [`Encoder::assert_blocking_clause`]
    /// instead of Tseitin-encoding it (which would allocate ~4 gate clauses
    /// and a fresh variable per bit).  This is the term fallback: the
    /// saturating counter blocks its models through
    /// [`Oracle::block_model`](crate::Oracle::block_model), which reaches
    /// the clause builder without building a term at all.
    ///
    /// Returns `false` without touching the solver when the term does not
    /// match the pattern; the caller falls back to the general encoder.
    pub fn try_assert_blocking(
        &mut self,
        tm: &TermManager,
        t: TermId,
        guard: Option<Lit>,
    ) -> Result<bool> {
        if !matches!(tm.op(t), Op::Not) {
            return Ok(false);
        }
        let inner = tm.children(t)[0];
        let eqs: Vec<TermId> = match tm.op(inner) {
            Op::And => tm.children(inner).to_vec(),
            Op::Eq => vec![inner],
            _ => return Ok(false),
        };
        // Validate the whole pattern before mutating any encoder state.
        let mut pairs: Vec<(TermId, BvValue)> = Vec::with_capacity(eqs.len());
        for eq in eqs {
            if !matches!(tm.op(eq), Op::Eq) || tm.children(eq).len() != 2 {
                return Ok(false);
            }
            let (a, b) = (tm.children(eq)[0], tm.children(eq)[1]);
            let (var, constant) = match (tm.op(a), tm.op(b)) {
                (Op::Var(_), Op::BvConst(_) | Op::BoolConst(_)) => (a, b),
                (Op::BvConst(_) | Op::BoolConst(_), Op::Var(_)) => (b, a),
                _ => return Ok(false),
            };
            let value = match tm.op(constant) {
                Op::BvConst(v) => *v,
                Op::BoolConst(b) => BvValue::new(u128::from(*b), 1),
                _ => return Ok(false),
            };
            match tm.sort(var) {
                Sort::Bool if value.width() == 1 => {}
                Sort::BitVec(w) if w == value.width() => {}
                _ => return Ok(false),
            }
            pairs.push((var, value));
        }
        self.assert_blocking_clause(tm, &pairs, guard)?;
        Ok(true)
    }

    /// Asserts `¬(v₁ = c₁ ∧ … ∧ vₙ = cₙ)` as a *single clause* over the
    /// variables' bit literals: at least one bit must differ from the
    /// blocked model.  `guard` is prepended to the clause when given (the
    /// incremental backend's activation literal).
    ///
    /// Every blocked model goes through here, so enumeration-heavy cells
    /// pay one clause per model; and a retired incremental frame leaves one
    /// satisfied clause behind instead of a thicket of live gate clauses
    /// that propagation keeps visiting.  Each `cᵢ` must have the width of
    /// `vᵢ`'s bits (1 for a boolean).
    pub fn assert_blocking_clause(
        &mut self,
        tm: &TermManager,
        pairs: &[(TermId, BvValue)],
        guard: Option<Lit>,
    ) -> Result<()> {
        let mut clause = std::mem::take(&mut self.blocking);
        clause.clear();
        clause.extend(guard.map(|g| !g));
        for &(var, value) in pairs {
            self.ensure_var_bits(tm, var)?;
            let bits = self.var_lits(tm, var).expect("bits just ensured");
            for (i, &lit) in bits.iter().enumerate() {
                clause.push(if value.bit(i as u32) { !lit } else { lit });
            }
        }
        self.sat.add_clause(&clause);
        self.blocking = clause;
        Ok(())
    }

    /// Ensures the bits of a discrete variable exist in the SAT solver, so
    /// that models and hash constraints range over it even when it does not
    /// occur in any assertion.
    pub fn ensure_var_bits(&mut self, tm: &TermManager, var: TermId) -> Result<()> {
        if self.var_lits(tm, var).is_some() {
            return Ok(());
        }
        match tm.sort(var) {
            Sort::Bool => {
                self.encode_bool(tm, var)?;
            }
            Sort::BitVec(_) => {
                self.encode_bv(tm, var)?;
            }
            Sort::BoundedInt { .. } => {
                self.encode_int(tm, var)?;
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "projection variable of continuous sort {other}"
                )))
            }
        }
        Ok(())
    }

    /// The SAT literals backing the bits of a discrete variable (LSB first).
    ///
    /// The variable must have been encoded (see [`Encoder::ensure_var_bits`]).
    pub fn var_bits(&self, tm: &TermManager, var: TermId) -> Option<Vec<Lit>> {
        self.var_lits(tm, var).map(<[Lit]>::to_vec)
    }

    /// [`Encoder::var_bits`] without the copy.
    fn var_lits(&self, tm: &TermManager, var: TermId) -> Option<&[Lit]> {
        match tm.sort(var) {
            Sort::Bool => self.bool_map.get(&var).map(std::slice::from_ref),
            Sort::BitVec(_) => self.bv_map.get(&var).map(Vec::as_slice),
            Sort::BoundedInt { .. } => self.int_map.get(&var).map(Vec::as_slice),
            _ => None,
        }
    }

    /// The literals of the chosen bits (`(variable, bit index)`) of a
    /// native XOR constraint, encoding each variable's bits if needed.
    pub(crate) fn xor_bit_lits(
        &mut self,
        tm: &TermManager,
        bits: &[(TermId, u32)],
    ) -> Result<Vec<Lit>> {
        let mut lits = Vec::with_capacity(bits.len() + 1);
        for &(var, bit) in bits {
            self.ensure_var_bits(tm, var)?;
            let var_bits = self
                .var_lits(tm, var)
                .ok_or_else(|| SolverError::Internal("tracked variable has no bits".to_string()))?;
            let lit = *var_bits.get(bit as usize).ok_or_else(|| {
                SolverError::Internal(format!("bit index {bit} out of range for hash constraint"))
            })?;
            lits.push(lit);
        }
        Ok(lits)
    }

    /// Adds a native XOR constraint over the given literals.
    ///
    /// Returns the engine id of the stored row (`None` when the row
    /// simplified away at level zero), so frame-scoped callers can retire
    /// it later through [`Solver::deactivate_xor`].
    pub fn add_xor_over_lits(&mut self, lits: &[Lit], rhs: bool) -> Option<usize> {
        let mut parity = rhs;
        let mut vars: Vec<Var> = Vec::with_capacity(lits.len());
        for &l in lits {
            if !l.is_positive() {
                parity = !parity;
            }
            vars.push(l.var());
        }
        self.sat.add_xor_tracked(&vars, parity).1
    }

    /// Encodes a boolean-sorted term to a literal.
    pub fn encode_bool(&mut self, tm: &TermManager, t: TermId) -> Result<Lit> {
        if let Some(&l) = self.bool_map.get(&t) {
            return Ok(l);
        }
        let children = tm.children(t).to_vec();
        let lit = match tm.op(t).clone() {
            Op::BoolConst(b) => self.lit_of_bool(b),
            Op::Var(_) => self.fresh(),
            Op::Not => {
                let c = self.encode_bool(tm, children[0])?;
                !c
            }
            Op::And => {
                let lits: Result<Vec<Lit>> =
                    children.iter().map(|&c| self.encode_bool(tm, c)).collect();
                let lits = lits?;
                self.and_many(&lits)
            }
            Op::Or => {
                let lits: Result<Vec<Lit>> =
                    children.iter().map(|&c| self.encode_bool(tm, c)).collect();
                let lits = lits?;
                self.or_many(&lits)
            }
            Op::Xor => {
                let a = self.encode_bool(tm, children[0])?;
                let b = self.encode_bool(tm, children[1])?;
                self.xor2(a, b)
            }
            Op::Implies => {
                let a = self.encode_bool(tm, children[0])?;
                let b = self.encode_bool(tm, children[1])?;
                self.or2(!a, b)
            }
            Op::Ite => {
                let c = self.encode_bool(tm, children[0])?;
                let a = self.encode_bool(tm, children[1])?;
                let b = self.encode_bool(tm, children[2])?;
                self.mux(c, a, b)
            }
            Op::Eq => self.encode_equality(tm, t, children[0], children[1])?,
            Op::Distinct => {
                let mut pair_lits = Vec::new();
                for i in 0..children.len() {
                    for j in (i + 1)..children.len() {
                        let eq = self.encode_equality(tm, t, children[i], children[j])?;
                        pair_lits.push(!eq);
                    }
                }
                self.and_many(&pair_lits)
            }
            Op::BvUlt => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_ult(&a, &b)
            }
            Op::BvUle => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_ule(&a, &b)
            }
            Op::BvSlt => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_slt(&a, &b)
            }
            Op::BvSle => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_sle(&a, &b)
            }
            Op::IntLe => {
                let (a, b) = self.encode_int_pair(tm, children[0], children[1])?;
                self.bv_ule(&a, &b)
            }
            Op::IntLt => {
                let (a, b) = self.encode_int_pair(tm, children[0], children[1])?;
                self.bv_ult(&a, &b)
            }
            Op::RealLt | Op::FpLt => {
                let a = self.encode_real(tm, children[0])?;
                let b = self.encode_real(tm, children[1])?;
                self.register_inequality_atom(t, a, b, true)
            }
            Op::RealLe | Op::FpLe => {
                let a = self.encode_real(tm, children[0])?;
                let b = self.encode_real(tm, children[1])?;
                self.register_inequality_atom(t, a, b, false)
            }
            Op::FpEq => {
                let a = self.encode_real(tm, children[0])?;
                let b = self.encode_real(tm, children[1])?;
                self.register_equality_atom(t, a, b)
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "boolean encoding of operator {other:?}"
                )))
            }
        };
        self.bool_map.insert(t, lit);
        Ok(lit)
    }

    fn encode_equality(
        &mut self,
        tm: &TermManager,
        eq_term: TermId,
        a: TermId,
        b: TermId,
    ) -> Result<Lit> {
        match tm.sort(a) {
            Sort::Bool => {
                let la = self.encode_bool(tm, a)?;
                let lb = self.encode_bool(tm, b)?;
                Ok(self.xnor2(la, lb))
            }
            Sort::BitVec(_) => {
                let va = self.encode_bv(tm, a)?;
                let vb = self.encode_bv(tm, b)?;
                Ok(self.bv_eq(&va, &vb))
            }
            Sort::BoundedInt { .. } => {
                let (va, vb) = self.encode_int_pair(tm, a, b)?;
                Ok(self.bv_eq(&va, &vb))
            }
            Sort::Real | Sort::Float { .. } => {
                let ea = self.encode_real(tm, a)?;
                let eb = self.encode_real(tm, b)?;
                Ok(self.register_equality_atom(eq_term, ea, eb))
            }
            Sort::Array { .. } => Err(SolverError::Unsupported(
                "equality between array terms".to_string(),
            )),
        }
    }

    /// Encodes a bit-vector-sorted term to its bit literals (LSB first).
    pub fn encode_bv(&mut self, tm: &TermManager, t: TermId) -> Result<Vec<Lit>> {
        if let Some(bits) = self.bv_map.get(&t) {
            return Ok(bits.clone());
        }
        let children = tm.children(t).to_vec();
        let width = tm
            .sort(t)
            .bv_width()
            .ok_or_else(|| SolverError::Internal("encode_bv on non-bitvector".to_string()))?
            as usize;
        let bits = match tm.op(t).clone() {
            Op::BvConst(v) => self.const_bits(&v),
            Op::Var(_) => (0..width).map(|_| self.fresh()).collect(),
            Op::BvNot => {
                let a = self.encode_bv(tm, children[0])?;
                self.bv_not(&a)
            }
            Op::BvNeg => {
                let a = self.encode_bv(tm, children[0])?;
                self.bv_neg(&a)
            }
            Op::BvAnd | Op::BvOr | Op::BvXor => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                let op = tm.op(t).clone();
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| match op {
                        Op::BvAnd => self.and2(x, y),
                        Op::BvOr => self.or2(x, y),
                        _ => self.xor2(x, y),
                    })
                    .collect()
            }
            Op::BvAdd => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_add(&a, &b)
            }
            Op::BvSub => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_sub(&a, &b)
            }
            Op::BvMul => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_mul(&a, &b)
            }
            op @ (Op::BvUdiv | Op::BvUrem) => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                let (quotient, remainder) = match self.const_word(&b) {
                    Some(p) if p != 0 => self.bv_divrem_const(&a, p),
                    _ => self.bv_divrem(&a, &b),
                };
                if matches!(op, Op::BvUdiv) {
                    quotient
                } else {
                    remainder
                }
            }
            Op::BvShl => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_shift(&a, &b, ShiftKind::Shl)
            }
            Op::BvLshr => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_shift(&a, &b, ShiftKind::Lshr)
            }
            Op::BvAshr => {
                let a = self.encode_bv(tm, children[0])?;
                let b = self.encode_bv(tm, children[1])?;
                self.bv_shift(&a, &b, ShiftKind::Ashr)
            }
            Op::BvConcat => {
                // children[0] is the high part.
                let hi = self.encode_bv(tm, children[0])?;
                let lo = self.encode_bv(tm, children[1])?;
                let mut bits = lo;
                bits.extend(hi);
                bits
            }
            Op::BvExtract { hi, lo } => {
                let a = self.encode_bv(tm, children[0])?;
                a[lo as usize..=hi as usize].to_vec()
            }
            Op::BvZeroExtend(by) => {
                let mut a = self.encode_bv(tm, children[0])?;
                let f = self.false_lit();
                a.extend(std::iter::repeat_n(f, by as usize));
                a
            }
            Op::BvSignExtend(by) => {
                let a = self.encode_bv(tm, children[0])?;
                let sign = *a.last().expect("non-empty bit-vector");
                let mut bits = a;
                bits.extend(std::iter::repeat_n(sign, by as usize));
                bits
            }
            Op::Ite => {
                let c = self.encode_bool(tm, children[0])?;
                let a = self.encode_bv(tm, children[1])?;
                let b = self.encode_bv(tm, children[2])?;
                self.bv_mux(c, &a, &b)
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "bit-vector encoding of operator {other:?}"
                )))
            }
        };
        debug_assert_eq!(bits.len(), width);
        self.bv_map.insert(t, bits.clone());
        Ok(bits)
    }

    // ------------------------------------------------------------------
    // Bounded integers
    // ------------------------------------------------------------------

    fn int_width(sort: &Sort) -> Result<usize> {
        match sort {
            Sort::BoundedInt { lo, hi } => {
                if *lo < 0 {
                    return Err(SolverError::Unsupported(
                        "bounded integers with negative lower bounds".to_string(),
                    ));
                }
                // The value is stored directly (not offset by `lo`), so the
                // width must be able to represent `hi` itself.
                let mut bits = 1usize;
                while (1i128 << bits) <= *hi as i128 {
                    bits += 1;
                }
                Ok(bits)
            }
            other => Err(SolverError::Internal(format!(
                "int encoding of sort {other}"
            ))),
        }
    }

    fn encode_int(&mut self, tm: &TermManager, t: TermId) -> Result<Vec<Lit>> {
        if let Some(bits) = self.int_map.get(&t) {
            return Ok(bits.clone());
        }
        let sort = tm.sort(t);
        let children = tm.children(t).to_vec();
        let bits = match tm.op(t).clone() {
            Op::IntConst(v) => {
                let width = Self::int_width(&sort)?.max(1);
                let value = BvValue::new(v as u128, width as u32);
                self.const_bits(&value)
            }
            Op::Var(_) => {
                let (lo, hi) = match sort {
                    Sort::BoundedInt { lo, hi } => (lo, hi),
                    _ => unreachable!(),
                };
                let width = Self::int_width(&tm.sort(t))?;
                let bits: Vec<Lit> = (0..width).map(|_| self.fresh()).collect();
                // Constrain lo <= value <= hi.
                let lo_bits = self.const_bits(&BvValue::new(lo as u128, width as u32));
                let hi_bits = self.const_bits(&BvValue::new(hi as u128, width as u32));
                let ge_lo = self.bv_ule(&lo_bits, &bits);
                let le_hi = self.bv_ule(&bits, &hi_bits);
                self.sat.add_clause(&[ge_lo]);
                self.sat.add_clause(&[le_hi]);
                bits
            }
            Op::IntAdd => {
                let a = self.encode_int(tm, children[0])?;
                let b = self.encode_int(tm, children[1])?;
                let width = Self::int_width(&sort)?.max(a.len()).max(b.len());
                let a = self.widen(a, width);
                let b = self.widen(b, width);
                self.bv_add(&a, &b)
            }
            Op::Ite => {
                let c = self.encode_bool(tm, children[0])?;
                let a = self.encode_int(tm, children[1])?;
                let b = self.encode_int(tm, children[2])?;
                let width = a.len().max(b.len());
                let a = self.widen(a, width);
                let b = self.widen(b, width);
                self.bv_mux(c, &a, &b)
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "bounded-integer encoding of operator {other:?}"
                )))
            }
        };
        self.int_map.insert(t, bits.clone());
        Ok(bits)
    }

    fn widen(&mut self, mut bits: Vec<Lit>, width: usize) -> Vec<Lit> {
        let f = self.false_lit();
        while bits.len() < width {
            bits.push(f);
        }
        bits
    }

    fn encode_int_pair(
        &mut self,
        tm: &TermManager,
        a: TermId,
        b: TermId,
    ) -> Result<(Vec<Lit>, Vec<Lit>)> {
        let ba = self.encode_int(tm, a)?;
        let bb = self.encode_int(tm, b)?;
        let width = ba.len().max(bb.len());
        Ok((self.widen(ba, width), self.widen(bb, width)))
    }

    // ------------------------------------------------------------------
    // Reals and relaxed floats
    // ------------------------------------------------------------------

    fn fresh_lra_var(&mut self) -> LraVar {
        let v = LraVar(self.num_lra_vars);
        self.num_lra_vars += 1;
        v
    }

    /// Encodes a real- or float-sorted term as a linear expression.
    pub fn encode_real(&mut self, tm: &TermManager, t: TermId) -> Result<LinExpr> {
        if let Some(e) = self.real_expr_cache.get(&t) {
            return Ok(e.clone());
        }
        let children = tm.children(t).to_vec();
        let expr = match tm.op(t).clone() {
            Op::RealConst(r) => LinExpr::from_constant(r),
            Op::Var(_) => {
                let v = match self.real_var_map.get(&t) {
                    Some(&v) => v,
                    None => {
                        let v = self.fresh_lra_var();
                        self.real_var_map.insert(t, v);
                        v
                    }
                };
                LinExpr::from_var(v)
            }
            Op::RealAdd | Op::FpAdd => {
                let mut acc = LinExpr::zero();
                for &c in &children {
                    acc = acc + self.encode_real(tm, c)?;
                }
                acc
            }
            Op::RealSub | Op::FpSub => {
                let a = self.encode_real(tm, children[0])?;
                let b = self.encode_real(tm, children[1])?;
                a - b
            }
            Op::RealNeg | Op::FpNeg => -self.encode_real(tm, children[0])?,
            Op::RealMul | Op::FpMul => {
                let a = self.encode_real(tm, children[0])?;
                let b = self.encode_real(tm, children[1])?;
                if a.is_constant() {
                    b * a.constant()
                } else if b.is_constant() {
                    a * b.constant()
                } else {
                    return Err(SolverError::Unsupported(
                        "non-linear real multiplication".to_string(),
                    ));
                }
            }
            Op::FpToReal | Op::RealToFp => self.encode_real(tm, children[0])?,
            Op::Ite => {
                // A fresh variable tied to each branch through conditional atoms.
                let cond = self.encode_bool(tm, children[0])?;
                let then_expr = self.encode_real(tm, children[1])?;
                let else_expr = self.encode_real(tm, children[2])?;
                let v = self.fresh_lra_var();
                let ve = LinExpr::from_var(v);
                let then_eq = self.fresh_eq_atom(ve.clone() - then_expr);
                let else_eq = self.fresh_eq_atom(ve.clone() - else_expr);
                self.sat.add_clause(&[!cond, then_eq]);
                self.sat.add_clause(&[cond, else_eq]);
                ve
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "real encoding of operator {other:?}"
                )))
            }
        };
        self.real_expr_cache.insert(t, expr.clone());
        Ok(expr)
    }

    /// Registers the atom `a < b` (strict) or `a ≤ b` with a fresh literal.
    fn register_inequality_atom(
        &mut self,
        term: TermId,
        a: LinExpr,
        b: LinExpr,
        strict: bool,
    ) -> Lit {
        if let Some(&l) = self.atom_of_term.get(&term) {
            return l;
        }
        let lit = self.fresh();
        let diff = a - b;
        let (rel, neg_rel) = if strict {
            (Relation::Lt, Relation::Ge)
        } else {
            (Relation::Le, Relation::Gt)
        };
        self.atoms.push(TheoryAtom {
            lit,
            when_true: Constraint::new(diff.clone(), rel),
            when_false: Some(Constraint::new(diff, neg_rel)),
        });
        self.atom_of_term.insert(term, lit);
        lit
    }

    /// Registers the atom `a = b`, splitting its negation into `<` / `>`.
    fn register_equality_atom(&mut self, term: TermId, a: LinExpr, b: LinExpr) -> Lit {
        if let Some(&l) = self.atom_of_term.get(&term) {
            return l;
        }
        let diff = a - b;
        let eq_lit = self.fresh();
        self.atoms.push(TheoryAtom {
            lit: eq_lit,
            when_true: Constraint::new(diff.clone(), Relation::Eq),
            when_false: None,
        });
        let lt_lit = self.fresh();
        self.atoms.push(TheoryAtom {
            lit: lt_lit,
            when_true: Constraint::new(diff.clone(), Relation::Lt),
            when_false: Some(Constraint::new(diff.clone(), Relation::Ge)),
        });
        let gt_lit = self.fresh();
        self.atoms.push(TheoryAtom {
            lit: gt_lit,
            when_true: Constraint::new(diff, Relation::Gt),
            when_false: Some(Constraint::new(LinExpr::zero(), Relation::Le)),
        });
        // eq ∨ lt ∨ gt; eq → ¬lt; eq → ¬gt.
        self.sat.add_clause(&[eq_lit, lt_lit, gt_lit]);
        self.sat.add_clause(&[!eq_lit, !lt_lit]);
        self.sat.add_clause(&[!eq_lit, !gt_lit]);
        self.atom_of_term.insert(term, eq_lit);
        eq_lit
    }

    /// A fresh atom literal asserting `expr = 0` when true (no meaning when
    /// false); used for `ite` over reals.
    fn fresh_eq_atom(&mut self, expr: LinExpr) -> Lit {
        let lit = self.fresh();
        self.atoms.push(TheoryAtom {
            lit,
            when_true: Constraint::new(expr, Relation::Eq),
            when_false: None,
        });
        lit
    }

    // ------------------------------------------------------------------
    // Model extraction helpers
    // ------------------------------------------------------------------

    /// Reads the value of a discrete variable from the SAT model.
    pub fn model_bits(&self, tm: &TermManager, var: TermId) -> Option<BvValue> {
        let bits = self.var_lits(tm, var)?;
        let model = self.sat.model();
        let mut value = 0u128;
        for (i, &lit) in bits.iter().enumerate() {
            let assigned = model.get(lit.var().index()).copied().unwrap_or(false);
            let bit = if lit.is_positive() {
                assigned
            } else {
                !assigned
            };
            if bit {
                value |= 1 << i;
            }
        }
        Some(BvValue::new(value, bits.len().max(1) as u32))
    }
}

/// Kinds of variable shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Shl,
    Lshr,
    Ashr,
}

/// Re-exported for the DPLL(T) driver: truth value of an atom literal in the
/// current SAT model, if the variable is assigned.
pub fn atom_value_in_model(model: &[bool], lit: Lit) -> Option<bool> {
    model
        .get(lit.var().index())
        .map(|&b| if lit.is_positive() { b } else { !b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Rational;
    use pact_sat::SatResult;

    fn check(_tm: &TermManager, enc: &mut Encoder) -> SatResult {
        enc.sat().solve(&[])
    }

    #[test]
    fn encodes_bv_arithmetic_consistently() {
        // x + 1 = 4 has the unique solution x = 3.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let one = tm.mk_bv_const(1, 4);
        let four = tm.mk_bv_const(4, 4);
        let sum = tm.mk_bv_add(x, one).unwrap();
        let eq = tm.mk_eq(sum, four);
        let mut enc = Encoder::new();
        enc.assert_term(&tm, eq).unwrap();
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
        assert_eq!(enc.model_bits(&tm, x).unwrap().as_u128(), 3);
    }

    #[test]
    fn encodes_multiplication() {
        // x * 3 = 12 on 5 bits: x = 4 is a solution.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let three = tm.mk_bv_const(3, 5);
        let twelve = tm.mk_bv_const(12, 5);
        let prod = tm.mk_bv_mul(x, three).unwrap();
        let eq = tm.mk_eq(prod, twelve);
        let mut enc = Encoder::new();
        enc.assert_term(&tm, eq).unwrap();
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
        let model = enc.model_bits(&tm, x).unwrap().as_u128();
        assert_eq!((model * 3) % 32, 12);
    }

    #[test]
    fn unsat_bv_constraints() {
        // x < 2 and x > 5 is unsatisfiable.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let two = tm.mk_bv_const(2, 4);
        let five = tm.mk_bv_const(5, 4);
        let lt = tm.mk_bv_ult(x, two).unwrap();
        let gt = tm.mk_bv_ult(five, x).unwrap();
        let mut enc = Encoder::new();
        enc.assert_term(&tm, lt).unwrap();
        enc.assert_term(&tm, gt).unwrap();
        assert_eq!(check(&tm, &mut enc), SatResult::Unsat);
    }

    #[test]
    fn division_circuit_matches_semantics() {
        // 13 / 3 = 4 and 13 % 3 = 1.
        let mut tm = TermManager::new();
        let a = tm.mk_var("a", Sort::BitVec(6));
        let b = tm.mk_var("b", Sort::BitVec(6));
        let q = tm.mk_bv_udiv(a, b).unwrap();
        let r = tm.mk_bv_urem(a, b).unwrap();
        let thirteen = tm.mk_bv_const(13, 6);
        let three = tm.mk_bv_const(3, 6);
        let f1 = tm.mk_eq(a, thirteen);
        let f2 = tm.mk_eq(b, three);
        let four = tm.mk_bv_const(4, 6);
        let one = tm.mk_bv_const(1, 6);
        let f3 = tm.mk_eq(q, four);
        let f4 = tm.mk_eq(r, one);
        let mut enc = Encoder::new();
        for f in [f1, f2, f3, f4] {
            enc.assert_term(&tm, f).unwrap();
        }
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
    }

    #[test]
    fn shifts_match_semantics() {
        // (1 << 3) = 8, (0b1000 >> 2) = 2.
        let mut tm = TermManager::new();
        let one = tm.mk_bv_const(1, 8);
        let three = tm.mk_bv_const(3, 8);
        let shl = tm.mk_bv_shl(one, three).unwrap();
        let eight = tm.mk_bv_const(8, 8);
        let f1 = tm.mk_eq(shl, eight);
        let two = tm.mk_bv_const(2, 8);
        let lshr = tm.mk_bv_lshr(eight, two).unwrap();
        let f2 = tm.mk_eq(lshr, two);
        let mut enc = Encoder::new();
        enc.assert_term(&tm, f1).unwrap();
        enc.assert_term(&tm, f2).unwrap();
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
    }

    #[test]
    fn free_projection_variable_gets_bits() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let mut enc = Encoder::new();
        enc.ensure_var_bits(&tm, x).unwrap();
        assert_eq!(enc.var_bits(&tm, x).unwrap().len(), 8);
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
        assert!(enc.model_bits(&tm, x).is_some());
    }

    #[test]
    fn real_atoms_are_registered_not_decided() {
        let mut tm = TermManager::new();
        let r = tm.mk_var("r", Sort::Real);
        let one = tm.mk_real_const(Rational::ONE);
        let lt = tm.mk_real_lt(r, one).unwrap();
        let mut enc = Encoder::new();
        enc.assert_term(&tm, lt).unwrap();
        assert_eq!(enc.atoms().len(), 1);
        assert_eq!(check(&tm, &mut enc), SatResult::Sat);
    }

    #[test]
    fn bounded_int_variables_are_range_constrained() {
        let mut tm = TermManager::new();
        let n = tm.mk_var("n", Sort::BoundedInt { lo: 2, hi: 5 });
        let mut enc = Encoder::new();
        enc.ensure_var_bits(&tm, n).unwrap();
        // Enumerate all models of the free bounded integer: must be 4 (2..=5).
        let bits = enc.var_bits(&tm, n).unwrap();
        let mut count = 0;
        while enc.sat().solve(&[]) == SatResult::Sat {
            count += 1;
            assert!(count <= 4);
            let value = enc.model_bits(&tm, n).unwrap().as_u128();
            assert!((2..=5).contains(&value));
            let blocking: Vec<Lit> = bits
                .iter()
                .map(|&l| {
                    let assigned = enc.sat().model()[l.var().index()];
                    if assigned {
                        !l.var().positive()
                    } else {
                        l.var().positive()
                    }
                })
                .collect();
            enc.sat().add_clause(&blocking);
        }
        assert_eq!(count, 4);
    }

    /// Variables the encoder allocated for the two circuits below before it
    /// folded constant inputs (and when it still used restoring division
    /// for every divisor).
    const UNFOLDED_ULT_VARS: usize = 51;
    const UNFOLDED_PRIME_HASH_VARS: usize = 4483;

    /// `(5·x[3:0] + 11·x[7:4] + 3·x[9:8] + 7) mod 17 = 9` in 13-bit
    /// arithmetic: the shape `pact_prime` draws for a 10-bit variable with
    /// ℓ = 4 (p = 17, width = |p − 1| + ℓ + |slices + 1| + 1).
    fn prime_hash_term(tm: &mut TermManager, x: TermId) -> TermId {
        let w = 13;
        let mut acc = tm.mk_bv_const(7, w);
        for (lo, width, a) in [(0, 4, 5), (4, 4, 11), (8, 2, 3)] {
            let slice = tm.mk_bv_extract(x, lo + width - 1, lo).unwrap();
            let widened = tm.mk_bv_zero_extend(slice, w - width).unwrap();
            let coeff = tm.mk_bv_const(a, w);
            let product = tm.mk_bv_mul(widened, coeff).unwrap();
            acc = tm.mk_bv_add(acc, product).unwrap();
        }
        let p = tm.mk_bv_const(17, w);
        let hashed = tm.mk_bv_urem(acc, p).unwrap();
        let target = tm.mk_bv_const(9, w);
        tm.mk_eq(hashed, target)
    }

    /// Number of SAT variables after asserting `build`'s term over a fresh
    /// 10-bit `x`.
    fn vars_to_assert(build: impl FnOnce(&mut TermManager, TermId) -> TermId) -> usize {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let t = build(&mut tm, x);
        let mut enc = Encoder::new();
        enc.assert_term(&tm, t).unwrap();
        enc.sat().num_vars()
    }

    #[test]
    fn constant_gate_inputs_allocate_no_variable() {
        let mut enc = Encoder::new();
        let t = enc.true_lit();
        let (x, a, b) = (enc.fresh(), enc.fresh(), enc.fresh());
        let before = enc.sat().num_vars();
        assert_eq!(enc.and2(x, t), x);
        assert_eq!(enc.and2(!t, x), !t);
        assert_eq!(enc.xor2(x, !t), x);
        assert_eq!(enc.xor2(t, x), !x);
        assert_eq!(enc.mux(t, a, b), a);
        assert_eq!(enc.mux(!t, a, b), b);
        assert_eq!(enc.mux(x, t, !t), x);
        assert_eq!(enc.mux(x, !t, t), !x);
        assert_eq!(enc.and_many(&[t, x, t]), x);
        assert_eq!(enc.or_many(&[x, t]), t);
        assert_eq!(enc.or_many(&[!t, !t]), !t);
        assert_eq!(enc.sat().num_vars(), before);
    }

    #[test]
    fn comparison_against_a_constant_allocates_fewer_variables() {
        let vars = vars_to_assert(|tm, x| {
            let c = tm.mk_bv_const(700, 10);
            tm.mk_bv_ult(x, c).unwrap()
        });
        assert!(vars < UNFOLDED_ULT_VARS, "{vars} variables");
    }

    #[test]
    fn prime_hash_allocates_at_most_half_the_unfolded_variables() {
        let vars = vars_to_assert(prime_hash_term);
        assert!(vars <= UNFOLDED_PRIME_HASH_VARS / 2, "{vars} variables");
    }

    #[test]
    fn prime_hash_circuit_has_the_hash_models() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let h = prime_hash_term(&mut tm, x);
        let mut enc = Encoder::new();
        enc.assert_term(&tm, h).unwrap();
        let bits = enc.var_bits(&tm, x).unwrap();
        let mut models = Vec::new();
        while enc.sat().solve(&[]) == SatResult::Sat {
            let value = enc.model_bits(&tm, x).unwrap().as_u128();
            models.push(value);
            let blocking: Vec<Lit> = bits
                .iter()
                .map(|&l| l.var().lit(!enc.sat().model()[l.var().index()]))
                .collect();
            enc.sat().add_clause(&blocking);
        }
        models.sort_unstable();
        let expected: Vec<u128> = (0..1024u128)
            .filter(|v| (5 * (v & 15) + 11 * ((v >> 4) & 15) + 3 * (v >> 8) + 7) % 17 == 9)
            .collect();
        assert_eq!(models, expected);
    }

    #[test]
    fn native_xor_over_variable_bits() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut enc = Encoder::new();
        enc.ensure_var_bits(&tm, x).unwrap();
        let bits = enc.var_bits(&tm, x).unwrap();
        // Parity of all bits must be odd: 4 of the 8 values remain.
        enc.add_xor_over_lits(&bits, true);
        let mut count = 0;
        while enc.sat().solve(&[]) == SatResult::Sat {
            count += 1;
            assert!(count <= 4);
            let value = enc.model_bits(&tm, x).unwrap();
            assert_eq!(value.as_u128().count_ones() % 2, 1);
            let blocking: Vec<Lit> = bits
                .iter()
                .map(|&l| {
                    let assigned = enc.sat().model()[l.var().index()];
                    l.var().lit(!assigned)
                })
                .collect();
            enc.sat().add_clause(&blocking);
        }
        assert_eq!(count, 4);
    }
}
