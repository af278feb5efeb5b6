//! Model extraction of the single-engine context.
//!
//! [`IncrementalContext`](crate::IncrementalContext) reads models from its
//! encoder and witness storage: discrete values from the SAT model,
//! continuous values from the simplex witness.

use pact_ir::{BvValue, Rational, Sort, TermId, TermManager, Value};

use crate::bitblast::Encoder;

/// Value of a variable in the most recent satisfying assignment.
///
/// Discrete variables come from the SAT model; real and float variables from
/// the simplex witness (floats are reported as their relaxed real value).
/// Returns `None` for unsupported sorts, for variables that were never
/// encoded, or if the last check was not satisfiable.
pub(crate) fn model_value(
    encoder: &Encoder,
    real_model_values: &[Rational],
    tm: &TermManager,
    var: TermId,
) -> Option<Value> {
    match tm.sort(var) {
        Sort::Bool => encoder
            .model_bits(tm, var)
            .map(|v| Value::Bool(v.as_u128() == 1)),
        Sort::BitVec(_) => encoder.model_bits(tm, var).map(Value::Bv),
        Sort::BoundedInt { .. } => encoder
            .model_bits(tm, var)
            .map(|v| Value::Int(v.as_u128() as i64)),
        Sort::Real | Sort::Float { .. } => {
            let lra = encoder.lra_var(var)?;
            let value = real_model_values
                .get(lra.index())
                .copied()
                .unwrap_or(Rational::ZERO);
            Some(Value::Real(value))
        }
        Sort::Array { .. } => None,
    }
}

/// The projected model: the value of each projection variable in the most
/// recent satisfying assignment, in the order given.
pub(crate) fn projected_model(
    encoder: &Encoder,
    tm: &TermManager,
    projection: &[TermId],
) -> Option<Vec<BvValue>> {
    projection
        .iter()
        .map(|&v| encoder.model_bits(tm, v))
        .collect()
}
