//! Random k-SAT formula generator (substituting for RAND-3 and the SAT
//! Competition 2014 "5-SAT" instance used by Survey Propagation).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A k-SAT formula in CSR-like form: clauses over variables, plus the
/// transposed variable→occurrence view the SP benchmark's second kernel
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct KSatFormula {
    /// Number of boolean variables.
    pub num_vars: usize,
    /// Clause offsets into `lits` (`num_clauses + 1` entries).
    pub clause_offsets: Vec<i64>,
    /// Literals: variable index, with sign in a parallel array.
    pub lits: Vec<i64>,
    /// Signs parallel to `lits` (+1 positive, -1 negated).
    pub signs: Vec<i64>,
    /// Variable offsets into `occ_clauses` (`num_vars + 1` entries).
    pub var_offsets: Vec<i64>,
    /// For each variable occurrence, the clause it appears in.
    pub occ_clauses: Vec<i64>,
}

impl KSatFormula {
    /// Number of clauses.
    pub(crate) fn num_clauses(&self) -> usize {
        self.clause_offsets.len() - 1
    }

    /// Total number of literals.
    pub(crate) fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Occurrences of variable `v` (clause indices).
    pub(crate) fn occurrences(&self, v: usize) -> &[i64] {
        &self.occ_clauses[self.var_offsets[v] as usize..self.var_offsets[v + 1] as usize]
    }

    /// Maximum occurrences of any variable.
    pub(crate) fn max_var_degree(&self) -> usize {
        (0..self.num_vars)
            .map(|v| self.occurrences(v).len())
            .max()
            .unwrap_or(0)
    }
}

/// Generates a uniform random k-SAT formula.
///
/// Each clause draws `k` distinct variables uniformly; signs are fair
/// coins. Deterministic per seed.
///
/// # Panics
///
/// Panics if `k > num_vars` or `k == 0`.
pub fn random_ksat(num_vars: usize, num_clauses: usize, k: usize, seed: u64) -> KSatFormula {
    assert!(k > 0 && k <= num_vars, "k must be in 1..=num_vars");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clause_offsets = Vec::with_capacity(num_clauses + 1);
    let mut lits = Vec::with_capacity(num_clauses * k);
    let mut signs = Vec::with_capacity(num_clauses * k);
    let mut var_occ: Vec<Vec<i64>> = vec![Vec::new(); num_vars];
    clause_offsets.push(0);
    for c in 0..num_clauses {
        let mut vars = Vec::with_capacity(k);
        while vars.len() < k {
            let v = rng.gen_range(0..num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for v in vars {
            lits.push(v as i64);
            signs.push(if rng.gen_bool(0.5) { 1 } else { -1 });
            var_occ[v].push(c as i64);
        }
        clause_offsets.push(lits.len() as i64);
    }
    let mut var_offsets = Vec::with_capacity(num_vars + 1);
    let mut occ_clauses = Vec::with_capacity(lits.len());
    var_offsets.push(0);
    for occ in &var_occ {
        occ_clauses.extend_from_slice(occ);
        var_offsets.push(occ_clauses.len() as i64);
    }
    KSatFormula {
        num_vars,
        clause_offsets,
        lits,
        signs,
        var_offsets,
        occ_clauses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_shape() {
        let f = random_ksat(100, 420, 3, 1);
        assert_eq!(f.num_clauses(), 420);
        assert_eq!(f.num_lits(), 420 * 3);
        assert_eq!(f.var_offsets.len(), 101);
        assert_eq!(f.occ_clauses.len(), 420 * 3);
    }

    #[test]
    fn clauses_have_distinct_vars() {
        let f = random_ksat(50, 100, 5, 2);
        for c in 0..f.num_clauses() {
            let s = f.clause_offsets[c] as usize;
            let e = f.clause_offsets[c + 1] as usize;
            let mut vars: Vec<i64> = f.lits[s..e].to_vec();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 5);
        }
    }

    #[test]
    fn transpose_is_consistent() {
        let f = random_ksat(30, 60, 3, 3);
        for v in 0..f.num_vars {
            for &c in f.occurrences(v) {
                let s = f.clause_offsets[c as usize] as usize;
                let e = f.clause_offsets[c as usize + 1] as usize;
                assert!(f.lits[s..e].contains(&(v as i64)));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(random_ksat(20, 40, 3, 9), random_ksat(20, 40, 3, 9));
        assert_ne!(random_ksat(20, 40, 3, 9), random_ksat(20, 40, 3, 10));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn oversized_k_panics() {
        random_ksat(2, 5, 3, 0);
    }
}
