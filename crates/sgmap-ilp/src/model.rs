//! Model builder for linear and 0/1 integer programs.
//!
//! All variables are non-negative. Binary variables are additionally
//! constrained to be at most one and are required to take integral values by
//! the branch-and-bound [`Solver`](crate::Solver).

use std::fmt;

use crate::error::IlpError;
use crate::Result;

/// Identifier of a decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The id of the variable at `index` — of whichever model has that many
/// variables; accessors panic on an id the model does not have.
impl From<usize> for VarId {
    fn from(index: usize) -> Self {
        VarId(index)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// A continuous variable in `[0, +inf)`.
    Continuous,
    /// A binary variable in `{0, 1}`.
    Binary,
}

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    /// Minimise the objective function.
    Minimize,
    /// Maximise the objective function.
    Maximize,
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub(crate) kind: VarKind,
    pub(crate) objective: f64,
    /// Native lower bound (`x >= lo`); finite.
    pub(crate) lo: f64,
    /// Native upper bound (`x <= hi`); may be `+inf`.
    pub(crate) hi: f64,
}

/// A linear constraint `sum(coef * var) (<=|>=|==) rhs`.
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) sense: ConstraintSense,
    pub(crate) rhs: f64,
}

/// A linear / 0-1 integer programming model.
///
/// Build the model by adding variables and constraints, then pass it to a
/// [`Solver`](crate::Solver).
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: ObjectiveSense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimisation direction.
    pub fn new(sense: ObjectiveSense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a continuous variable in `[0, +inf)` with the given objective
    /// coefficient and returns its id.
    pub fn add_continuous(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Continuous, objective)
    }

    /// Adds a binary variable with the given objective coefficient and
    /// returns its id.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Binary, objective)
    }

    fn add_var(&mut self, kind: VarKind, objective: f64) -> VarId {
        let id = VarId(self.vars.len());
        let (lo, hi) = match kind {
            VarKind::Continuous => (0.0, f64::INFINITY),
            VarKind::Binary => (0.0, 1.0),
        };
        self.vars.push(Variable {
            kind,
            objective,
            lo,
            hi,
        });
        id
    }

    /// Overrides the native bounds of a variable (`lo <= x <= hi`).
    ///
    /// Bounds are handled natively by the bounded-variable simplex — they do
    /// not become constraint rows. All variables in this crate are
    /// non-negative, so the lower bound must be finite and `>= 0`; the upper
    /// bound may be `f64::INFINITY`. Tightening a binary variable's bounds
    /// within `[0, 1]` is allowed; the integrality requirement is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model, if `lo > hi`, or if
    /// `lo` is negative or not finite.
    pub fn set_bounds(&mut self, id: VarId, lo: f64, hi: f64) {
        assert!(
            lo.is_finite() && lo >= 0.0,
            "lower bound of {id} must be finite and non-negative, got {lo}"
        );
        assert!(lo <= hi, "empty bound range [{lo}, {hi}] for {id}");
        let v = &mut self.vars[id.0];
        v.lo = lo;
        v.hi = hi;
    }

    /// Returns the native `(lo, hi)` bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub fn var_bounds(&self, id: VarId) -> (f64, f64) {
        (self.vars[id.0].lo, self.vars[id.0].hi)
    }

    /// Adds a constraint `sum(coef * var) <= rhs`.
    pub fn add_constraint_le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(terms, ConstraintSense::Le, rhs);
    }

    /// Adds a constraint `sum(coef * var) >= rhs`.
    pub fn add_constraint_ge(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(terms, ConstraintSense::Ge, rhs);
    }

    /// Adds a constraint `sum(coef * var) == rhs`.
    pub fn add_constraint_eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(terms, ConstraintSense::Eq, rhs);
    }

    /// Adds a constraint with an explicit sense.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, sense: ConstraintSense, rhs: f64) {
        self.constraints.push(Constraint { terms, sense, rhs });
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints (not counting the implicit `x <= 1` bounds on
    /// binary variables).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The terms, sense and right-hand side of constraint `row`, as added.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.num_constraints()`.
    pub fn constraint(&self, row: usize) -> (&[(VarId, f64)], ConstraintSense, f64) {
        let c = &self.constraints[row];
        (&c.terms, c.sense, c.rhs)
    }

    /// Objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub fn objective_coefficient(&self, id: VarId) -> f64 {
        self.vars[id.0].objective
    }

    /// Ids of all binary variables in the model.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Direction of optimisation.
    pub fn objective_sense(&self) -> ObjectiveSense {
        self.sense
    }

    /// Evaluates the objective function at the given point.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the number of variables.
    pub fn evaluate_objective(&self, values: &[f64]) -> f64 {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * values[i])
            .sum()
    }

    /// Checks whether the given point satisfies every constraint (and the
    /// binary bounds) within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() < self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if values[i] < v.lo - tol || values[i] > v.hi + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * values[v.0]).sum();
            let ok = match c.sense {
                ConstraintSense::Le => lhs <= c.rhs + tol,
                ConstraintSense::Ge => lhs >= c.rhs - tol,
                ConstraintSense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Column views of the constraint matrix: for every variable, the
    /// `(row, coefficient)` pairs of the rows it appears in, with duplicate
    /// terms within a row merged. Rows appear in increasing order. This is
    /// the input of the sparse column-major store the revised simplex works
    /// on.
    pub(crate) fn column_views(&self) -> Vec<Vec<(u32, f64)>> {
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.vars.len()];
        for (r, c) in self.constraints.iter().enumerate() {
            for &(v, coef) in &c.terms {
                let col = &mut cols[v.0];
                // Rows are visited in order, so a duplicate term of the same
                // row is always the last entry.
                match col.last_mut() {
                    Some((row, val)) if *row == r as u32 => *val += coef,
                    _ => col.push((r as u32, coef)),
                }
            }
        }
        cols
    }

    /// Validates that every constraint references only variables that belong
    /// to the model.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::EmptyModel`] or [`IlpError::UnknownVariable`].
    pub fn validate(&self) -> Result<()> {
        if self.vars.is_empty() {
            return Err(IlpError::EmptyModel);
        }
        for c in &self.constraints {
            for &(v, _) in &c.terms {
                if v.0 >= self.vars.len() {
                    return Err(IlpError::UnknownVariable(v.0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_builder_accumulates_vars_and_constraints() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_binary(-2.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 3.0)], 5.0);
        m.add_constraint_eq(vec![(y, 1.0)], 1.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(m.constraint(1), (&[(y, 1.0)][..], ConstraintSense::Eq, 1.0));
        assert_eq!(m.objective_coefficient(y), -2.0);
        assert_eq!(m.binary_vars(), vec![y]);
        m.validate().unwrap();
    }

    #[test]
    fn feasibility_check_covers_all_senses() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint_le(vec![(x, 1.0)], 4.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, 1.0)], 2.0);
        m.add_constraint_eq(vec![(y, 1.0)], 1.0);
        assert!(m.is_feasible(&[1.5, 1.0], 1e-9));
        assert!(!m.is_feasible(&[5.0, 1.0], 1e-9)); // violates <=
        assert!(!m.is_feasible(&[0.5, 0.0], 1e-9)); // violates >= and ==
        assert!(!m.is_feasible(&[-0.1, 1.0], 1e-9)); // negative
        assert!(!m.is_feasible(&[1.0, 1.5], 1e-9)); // binary above 1
    }

    #[test]
    fn validate_rejects_empty_and_foreign_vars() {
        let m = Model::new(ObjectiveSense::Minimize);
        assert_eq!(m.validate(), Err(IlpError::EmptyModel));
        let mut m = Model::new(ObjectiveSense::Minimize);
        let _x = m.add_continuous(1.0);
        m.add_constraint_le(vec![(VarId(7), 1.0)], 1.0);
        assert_eq!(m.validate(), Err(IlpError::UnknownVariable(7)));
    }
}
