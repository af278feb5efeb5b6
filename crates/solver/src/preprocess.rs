//! Theory preprocessing: array reduction and Ackermannization.
//!
//! The bit-blasting encoder only understands booleans, bit-vectors, reals,
//! (relaxed) floats and bounded integers.  This module removes the remaining
//! theories up front:
//!
//! * **Arrays** — `select`-over-`store` chains are rewritten with the
//!   read-over-write axiom, and every remaining `select` on an array variable
//!   is replaced by a fresh element variable with Ackermann congruence
//!   constraints between reads of the same array.
//! * **Uninterpreted functions** — every application is replaced by a fresh
//!   result variable, with pairwise Ackermann congruence constraints.
//!
//! Equality between whole arrays is outside the supported fragment and is
//! reported as [`SolverError::Unsupported`].

use std::collections::HashMap;

use pact_ir::{AppHead, Op, Sort, TermId, TermManager};

use crate::error::{Result, SolverError};

/// The output of preprocessing: rewritten assertions plus congruence axioms.
#[derive(Debug, Clone, Default)]
pub struct Preprocessed {
    /// The rewritten assertions (same order as the input).
    pub assertions: Vec<TermId>,
    /// Ackermann congruence axioms that must be asserted alongside them.
    pub axioms: Vec<TermId>,
}

/// Applies array reduction and Ackermannization to `assertions`.
pub fn preprocess(tm: &mut TermManager, assertions: &[TermId]) -> Result<Preprocessed> {
    let mut state = State::default();
    let mut rewritten = Vec::with_capacity(assertions.len());
    for &a in assertions {
        rewritten.push(state.rewrite(tm, a)?);
    }
    let axioms = state.congruence_axioms(tm)?;
    Ok(Preprocessed {
        assertions: rewritten,
        axioms,
    })
}

/// One flattened application: either `select(array_var, index)` or
/// `f(args...)`, identified by its group key, argument list and the fresh
/// variable standing in for its result.
#[derive(Debug, Clone)]
struct Application {
    args: Vec<TermId>,
    result: TermId,
}

#[derive(Debug, Default)]
struct State {
    cache: HashMap<TermId, TermId>,
    /// Applications grouped by "function": an array variable or a UF symbol.
    groups: HashMap<AppHead, Vec<Application>>,
}

impl State {
    fn rewrite(&mut self, tm: &mut TermManager, t: TermId) -> Result<TermId> {
        if let Some(&r) = self.cache.get(&t) {
            return Ok(r);
        }
        let op = tm.op(t).clone();
        let children = tm.children(t).to_vec();

        let result = match op {
            Op::Select => {
                let array = self.rewrite(tm, children[0])?;
                let index = self.rewrite(tm, children[1])?;
                self.rewrite_select(tm, array, index)?
            }
            Op::Apply(f) => {
                let args: Result<Vec<TermId>> =
                    children.iter().map(|&c| self.rewrite(tm, c)).collect();
                let args = args?;
                let ret = tm.fun_decl(f).ret.clone();
                self.flatten_application(tm, AppHead::Fun(f), args, ret)
            }
            Op::Eq if matches!(tm.sort(children[0]), Sort::Array { .. }) => {
                return Err(SolverError::Unsupported(
                    "equality between array terms".to_string(),
                ));
            }
            _ if children.is_empty() => t,
            op => {
                let new_children: Result<Vec<TermId>> =
                    children.iter().map(|&c| self.rewrite(tm, c)).collect();
                let new_children = new_children?;
                if new_children == children {
                    t
                } else {
                    rebuild(tm, &op, &new_children, t)?
                }
            }
        };
        self.cache.insert(t, result);
        Ok(result)
    }

    /// Applies the read-over-write axiom until the array argument is a plain
    /// variable, then flattens the read into a fresh element variable.
    fn rewrite_select(
        &mut self,
        tm: &mut TermManager,
        array: TermId,
        index: TermId,
    ) -> Result<TermId> {
        match tm.op(array).clone() {
            Op::Store => {
                let children = tm.children(array).to_vec();
                let (base, stored_index, stored_value) = (children[0], children[1], children[2]);
                let cond = tm.mk_eq(index, stored_index);
                let else_branch = self.rewrite_select(tm, base, index)?;
                tm.mk_ite(cond, stored_value, else_branch)
                    .map_err(|e| SolverError::Internal(e.to_string()))
            }
            Op::Ite => {
                let children = tm.children(array).to_vec();
                let then_sel = self.rewrite_select(tm, children[1], index)?;
                let else_sel = self.rewrite_select(tm, children[2], index)?;
                tm.mk_ite(children[0], then_sel, else_sel)
                    .map_err(|e| SolverError::Internal(e.to_string()))
            }
            Op::Var(_) => {
                let element = match tm.sort(array) {
                    Sort::Array { element, .. } => *element,
                    other => {
                        return Err(SolverError::Internal(format!(
                            "select on non-array sort {other}"
                        )))
                    }
                };
                Ok(self.flatten_application(tm, AppHead::Array(array), vec![index], element))
            }
            other => Err(SolverError::Unsupported(format!(
                "select on array expression {other:?}"
            ))),
        }
    }

    /// Replaces an application by its result variable.  The variable comes
    /// from the term manager's memo, so re-preprocessing the same formula
    /// (a fresh oracle per count) reuses it instead of minting a new one.
    fn flatten_application(
        &mut self,
        tm: &mut TermManager,
        head: AppHead,
        args: Vec<TermId>,
        ret: Sort,
    ) -> TermId {
        let result = tm.mk_app_var(head, &args, ret);
        let apps = self.groups.entry(head).or_default();
        if !apps.iter().any(|app| app.result == result) {
            apps.push(Application { args, result });
        }
        result
    }

    /// Pairwise congruence: equal arguments imply equal results.
    fn congruence_axioms(&self, tm: &mut TermManager) -> Result<Vec<TermId>> {
        let mut axioms = Vec::new();
        let mut groups: Vec<(&AppHead, &Vec<Application>)> = self.groups.iter().collect();
        groups.sort_by_key(|(k, _)| match k {
            AppHead::Array(t) => (0u8, t.index() as u32),
            AppHead::Fun(f) => (1u8, *f),
        });
        for (_, apps) in groups {
            for i in 0..apps.len() {
                for j in (i + 1)..apps.len() {
                    let a = &apps[i];
                    let b = &apps[j];
                    let mut arg_eqs = Vec::with_capacity(a.args.len());
                    for (&x, &y) in a.args.iter().zip(&b.args) {
                        arg_eqs.push(tm.mk_eq(x, y));
                    }
                    let args_equal = tm.mk_and(arg_eqs);
                    let results_equal = tm.mk_eq(a.result, b.result);
                    let axiom = tm
                        .mk_implies(args_equal, results_equal)
                        .map_err(|e| SolverError::Internal(e.to_string()))?;
                    axioms.push(axiom);
                }
            }
        }
        Ok(axioms)
    }
}

/// Rebuilds a term with new children, dispatching on the operator.
fn rebuild(tm: &mut TermManager, op: &Op, children: &[TermId], original: TermId) -> Result<TermId> {
    let err = |e: pact_ir::IrError| SolverError::Internal(e.to_string());
    let t = match op {
        Op::Not => tm.mk_not(children[0]),
        Op::And => tm.mk_and(children.iter().copied()),
        Op::Or => tm.mk_or(children.iter().copied()),
        Op::Xor => tm.mk_xor(children[0], children[1]).map_err(err)?,
        Op::Implies => tm.mk_implies(children[0], children[1]).map_err(err)?,
        Op::Ite => tm
            .mk_ite(children[0], children[1], children[2])
            .map_err(err)?,
        Op::Eq => tm.mk_eq(children[0], children[1]),
        Op::Distinct => tm.mk_distinct(children.to_vec()),
        Op::BvNot => tm.mk_bv_not(children[0]).map_err(err)?,
        Op::BvNeg => tm.mk_bv_neg(children[0]).map_err(err)?,
        Op::BvAnd => tm.mk_bv_and(children[0], children[1]).map_err(err)?,
        Op::BvOr => tm.mk_bv_or(children[0], children[1]).map_err(err)?,
        Op::BvXor => tm.mk_bv_xor(children[0], children[1]).map_err(err)?,
        Op::BvAdd => tm.mk_bv_add(children[0], children[1]).map_err(err)?,
        Op::BvSub => tm.mk_bv_sub(children[0], children[1]).map_err(err)?,
        Op::BvMul => tm.mk_bv_mul(children[0], children[1]).map_err(err)?,
        Op::BvUdiv => tm.mk_bv_udiv(children[0], children[1]).map_err(err)?,
        Op::BvUrem => tm.mk_bv_urem(children[0], children[1]).map_err(err)?,
        Op::BvShl => tm.mk_bv_shl(children[0], children[1]).map_err(err)?,
        Op::BvLshr => tm.mk_bv_lshr(children[0], children[1]).map_err(err)?,
        Op::BvAshr => tm.mk_bv_ashr(children[0], children[1]).map_err(err)?,
        Op::BvConcat => tm.mk_bv_concat(children[0], children[1]).map_err(err)?,
        Op::BvExtract { hi, lo } => tm.mk_bv_extract(children[0], *hi, *lo).map_err(err)?,
        Op::BvZeroExtend(by) => tm.mk_bv_zero_extend(children[0], *by).map_err(err)?,
        Op::BvSignExtend(by) => tm.mk_bv_sign_extend(children[0], *by).map_err(err)?,
        Op::BvUlt => tm.mk_bv_ult(children[0], children[1]).map_err(err)?,
        Op::BvUle => tm.mk_bv_ule(children[0], children[1]).map_err(err)?,
        Op::BvSlt => tm.mk_bv_slt(children[0], children[1]).map_err(err)?,
        Op::BvSle => tm.mk_bv_sle(children[0], children[1]).map_err(err)?,
        Op::RealAdd => tm.mk_real_add(children.to_vec()).map_err(err)?,
        Op::RealSub => tm.mk_real_sub(children[0], children[1]).map_err(err)?,
        Op::RealMul => tm.mk_real_mul(children[0], children[1]).map_err(err)?,
        Op::RealNeg => tm.mk_real_neg(children[0]).map_err(err)?,
        Op::RealLt => tm.mk_real_lt(children[0], children[1]).map_err(err)?,
        Op::RealLe => tm.mk_real_le(children[0], children[1]).map_err(err)?,
        Op::IntAdd => tm.mk_int_add(children[0], children[1]).map_err(err)?,
        Op::IntLe => tm.mk_int_le(children[0], children[1]).map_err(err)?,
        Op::IntLt => tm.mk_int_lt(children[0], children[1]).map_err(err)?,
        Op::FpAdd => tm.mk_fp_add(children[0], children[1]).map_err(err)?,
        Op::FpSub => tm.mk_fp_sub(children[0], children[1]).map_err(err)?,
        Op::FpMul => tm.mk_fp_mul(children[0], children[1]).map_err(err)?,
        Op::FpNeg => tm.mk_fp_neg(children[0]).map_err(err)?,
        Op::FpEq => tm.mk_fp_eq(children[0], children[1]).map_err(err)?,
        Op::FpLt => tm.mk_fp_lt(children[0], children[1]).map_err(err)?,
        Op::FpLe => tm.mk_fp_le(children[0], children[1]).map_err(err)?,
        Op::FpToReal => tm.mk_fp_to_real(children[0]).map_err(err)?,
        Op::RealToFp => {
            let sort = tm.sort(original);
            tm.mk_real_to_fp(children[0], sort).map_err(err)?
        }
        Op::Store => tm
            .mk_store(children[0], children[1], children[2])
            .map_err(err)?,
        Op::Select | Op::Apply(_) => {
            return Err(SolverError::Internal(
                "select/apply must be handled by the caller".to_string(),
            ))
        }
        Op::Var(_) | Op::BoolConst(_) | Op::BvConst(_) | Op::RealConst(_) | Op::IntConst(_) => {
            original
        }
    };
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    #[test]
    fn select_over_store_is_rewritten() {
        let mut tm = TermManager::new();
        let a = tm.mk_var("a", Sort::array(Sort::BitVec(4), Sort::BitVec(8)));
        let i = tm.mk_var("i", Sort::BitVec(4));
        let j = tm.mk_var("j", Sort::BitVec(4));
        let v = tm.mk_bv_const(0xAA, 8);
        let stored = tm.mk_store(a, i, v).unwrap();
        let sel = tm.mk_select(stored, j).unwrap();
        let c = tm.mk_bv_const(0xAA, 8);
        let f = tm.mk_eq(sel, c);
        let pre = preprocess(&mut tm, &[f]).unwrap();
        assert_eq!(pre.assertions.len(), 1);
        // The rewritten assertion must not contain Select/Store operators.
        let mut stack = pre.assertions.clone();
        while let Some(t) = stack.pop() {
            assert!(!matches!(tm.op(t), Op::Select | Op::Store));
            stack.extend(tm.children(t).iter().copied());
        }
    }

    #[test]
    fn repeated_selects_share_the_fresh_variable() {
        let mut tm = TermManager::new();
        let a = tm.mk_var("a", Sort::array(Sort::BitVec(4), Sort::BitVec(8)));
        let i = tm.mk_var("i", Sort::BitVec(4));
        let s1 = tm.mk_select(a, i).unwrap();
        let s2 = tm.mk_select(a, i).unwrap();
        let eq = tm.mk_eq(s1, s2); // trivially true after sharing
        let pre = preprocess(&mut tm, &[eq]).unwrap();
        assert_eq!(pre.assertions[0], tm.mk_true());
        assert!(pre.axioms.is_empty());
    }

    #[test]
    fn distinct_selects_get_congruence_axioms() {
        let mut tm = TermManager::new();
        let a = tm.mk_var("a", Sort::array(Sort::BitVec(4), Sort::BitVec(8)));
        let i = tm.mk_var("i", Sort::BitVec(4));
        let j = tm.mk_var("j", Sort::BitVec(4));
        let s1 = tm.mk_select(a, i).unwrap();
        let s2 = tm.mk_select(a, j).unwrap();
        let f = tm.mk_distinct(vec![s1, s2]);
        let pre = preprocess(&mut tm, &[f]).unwrap();
        assert_eq!(pre.axioms.len(), 1);
    }

    #[test]
    fn uf_applications_are_ackermannized() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", vec![Sort::BitVec(8)], Sort::BitVec(8));
        let x = tm.mk_var("x", Sort::BitVec(8));
        let y = tm.mk_var("y", Sort::BitVec(8));
        let fx = tm.mk_apply(f, vec![x]).unwrap();
        let fy = tm.mk_apply(f, vec![y]).unwrap();
        let assertion = tm.mk_distinct(vec![fx, fy]);
        let pre = preprocess(&mut tm, &[assertion]).unwrap();
        assert_eq!(pre.axioms.len(), 1, "one congruence axiom for the pair");
        // The rewritten assertion has no Apply nodes.
        let mut stack = pre.assertions.clone();
        while let Some(t) = stack.pop() {
            assert!(!matches!(tm.op(t), Op::Apply(_)));
            stack.extend(tm.children(t).iter().copied());
        }
    }

    #[test]
    fn array_equality_is_unsupported() {
        let mut tm = TermManager::new();
        let sort = Sort::array(Sort::BitVec(4), Sort::BitVec(8));
        let a = tm.mk_var("a", sort.clone());
        let b = tm.mk_var("b", sort);
        let eq = tm.mk_eq(a, b);
        assert!(matches!(
            preprocess(&mut tm, &[eq]),
            Err(SolverError::Unsupported(_))
        ));
    }
}
