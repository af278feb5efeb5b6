//! Variables, literals and three-valued assignments.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }

    /// A literal of this variable with the given polarity.
    pub fn lit(self, positive: bool) -> Lit {
        Lit::new(self, positive)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// The code is `2 * var` for the positive literal and `2 * var + 1` for the
/// negative literal, which makes literal-indexed tables dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from a variable and polarity (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` for positive literals.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code suitable for indexing watcher lists.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its [`Lit::code`].
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "-{}", self.var())
        }
    }
}

/// A three-valued assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a concrete boolean.
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns `true` when the value is assigned (not [`LBool::Undef`]).
    pub fn is_assigned(self) -> bool {
        self != LBool::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_codes_are_dense() {
        let v = Var(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
        assert_eq!(Lit::from_code(6), v.positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!(!v.positive()), v.positive());
    }
}
