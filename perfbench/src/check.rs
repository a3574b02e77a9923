//! The benchmark's own answer checker.
//!
//! Everything here works on the raw CSR arrays (`row_ptr` / `col_idx` /
//! `values`) and never calls the program's kernels or `linalg`, so a fault
//! in those cannot hide itself. Every comparison is written `!(err <= tol)`
//! so that a NaN anywhere fails the check instead of slipping through.

use sptrsv_sparse::CsrMatrix;

/// Relative agreement required between a plan's solution and the
/// benchmark's own substitution (the program documents bit-identical exact
/// kernels; summation order may differ after reordering).
pub const SOLVE_TOL: f64 = 1e-12;

/// Relative residual every PCG right-hand side must reach.
pub const PCG_TOL: f64 = 1e-8;

/// A borrowed view of a CSR matrix's raw arrays.
#[derive(Clone, Copy)]
pub struct Csr<'a> {
    pub n: usize,
    pub row_ptr: &'a [usize],
    pub col_idx: &'a [usize],
    pub values: &'a [f64],
}

impl<'a> Csr<'a> {
    pub fn of(m: &'a CsrMatrix) -> Csr<'a> {
        Csr { n: m.n_rows(), row_ptr: m.row_ptr(), col_idx: m.col_idx(), values: m.values() }
    }

    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + 'a {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }
}

/// Forward substitution `L x = b` for a lower-triangular CSR operand.
pub fn forward_subst(l: Csr<'_>, b: &[f64]) -> Result<Vec<f64>, String> {
    let mut x = vec![0.0; l.n];
    for i in 0..l.n {
        let (mut acc, mut diag) = (b[i], None);
        for (j, v) in l.row(i) {
            match j.cmp(&i) {
                std::cmp::Ordering::Less => acc -= v * x[j],
                std::cmp::Ordering::Equal => diag = Some(v),
                std::cmp::Ordering::Greater => {
                    return Err(format!("entry ({i},{j}) above diagonal"))
                }
            }
        }
        let d = diag.ok_or_else(|| format!("row {i} has no diagonal"))?;
        x[i] = acc / d;
    }
    Ok(x)
}

/// Backward substitution `U x = b` for an upper-triangular CSR operand.
pub fn backward_subst(u: Csr<'_>, b: &[f64]) -> Result<Vec<f64>, String> {
    let mut x = vec![0.0; u.n];
    for i in (0..u.n).rev() {
        let (mut acc, mut diag) = (b[i], None);
        for (j, v) in u.row(i) {
            match j.cmp(&i) {
                std::cmp::Ordering::Greater => acc -= v * x[j],
                std::cmp::Ordering::Equal => diag = Some(v),
                std::cmp::Ordering::Less => return Err(format!("entry ({i},{j}) below diagonal")),
            }
        }
        let d = diag.ok_or_else(|| format!("row {i} has no diagonal"))?;
        x[i] = acc / d;
    }
    Ok(x)
}

/// `y = A x` for a general CSR matrix.
pub fn matvec(a: Csr<'_>, x: &[f64]) -> Vec<f64> {
    (0..a.n).map(|i| a.row(i).map(|(j, v)| v * x[j]).sum()).collect()
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `max |x - reference| / max |reference|`; NaN if either holds a NaN.
pub fn relative_diff(x: &[f64], reference: &[f64]) -> f64 {
    if x.len() != reference.len() {
        return f64::NAN;
    }
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
    for (a, r) in x.iter().zip(reference) {
        let d = (a - r).abs();
        if d.is_nan() || r.is_nan() {
            return f64::NAN;
        }
        diff = diff.max(d);
        scale = scale.max(r.abs());
    }
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// `x` agrees with `reference` to `tol` relative.
pub fn agree(x: &[f64], reference: &[f64], tol: f64) -> Result<(), String> {
    let err = relative_diff(x, reference);
    if !(err <= tol) {
        return Err(format!("relative difference {err:e} exceeds {tol:e}"));
    }
    Ok(())
}

/// `||b - A x||₂ / ||b||₂` by the benchmark's own matvec.
pub fn relative_residual(a: Csr<'_>, x: &[f64], b: &[f64]) -> f64 {
    let ax = matvec(a, x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    norm2(&r) / norm2(b)
}

/// `A x = b` to a relative residual of `tol`.
pub fn residual_within(a: Csr<'_>, x: &[f64], b: &[f64], tol: f64) -> Result<(), String> {
    let rel = relative_residual(a, x, b);
    if !(rel <= tol) {
        return Err(format!("relative residual {rel:e} exceeds {tol:e}"));
    }
    Ok(())
}

/// Bit-for-bit equality (the serving layer and the plan cache promise it).
pub fn bit_identical(x: &[f64], y: &[f64]) -> Result<(), String> {
    if x.len() != y.len() {
        return Err(format!("lengths differ: {} vs {}", x.len(), y.len()));
    }
    match x.iter().zip(y).position(|(a, b)| a.to_bits() != b.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!("entry {i} differs: {:e} vs {:e}", x[i], y[i])),
    }
}

/// Precedence check of a schedule against the dependencies of the
/// lower-triangular operand it runs on: every off-diagonal entry `(i, j)`
/// makes row `i` wait for row `j`, so `j` must run in an earlier superstep,
/// or in the same superstep on the same core before `i` (cells run in
/// increasing row order).
pub fn precedence(
    l: Csr<'_>,
    n_cores: usize,
    core_of: &[usize],
    step_of: &[usize],
) -> Result<(), String> {
    if core_of.len() != l.n || step_of.len() != l.n {
        return Err(format!(
            "schedule covers {}/{} rows, operand has {}",
            core_of.len(),
            step_of.len(),
            l.n
        ));
    }
    if let Some(i) = core_of.iter().position(|&c| c >= n_cores) {
        return Err(format!("row {i} on core {} of {n_cores}", core_of[i]));
    }
    for i in 0..l.n {
        for (j, _) in l.row(i) {
            if j == i {
                continue;
            }
            if j > i {
                return Err(format!("entry ({i},{j}) above diagonal"));
            }
            let ordered =
                step_of[j] < step_of[i] || (step_of[j] == step_of[i] && core_of[j] == core_of[i]);
            if !ordered {
                return Err(format!(
                    "row {i} (core {}, step {}) does not wait for row {j} (core {}, step {})",
                    core_of[i], step_of[i], core_of[j], step_of[j]
                ));
            }
        }
    }
    Ok(())
}

/// Operations attempted and failed; a failed check never yields a number.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!("FAILED {}: {e}", what());
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `L = [[2,0,0],[1,4,0],[0,3,5]]`.
    fn small_lower() -> CsrMatrix {
        CsrMatrix::from_raw(
            3,
            3,
            vec![0, 1, 3, 5],
            vec![0, 0, 1, 1, 2],
            vec![2.0, 1.0, 4.0, 3.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn substitution_solves_small_systems() {
        let l = small_lower();
        let x = forward_subst(Csr::of(&l), &[2.0, 5.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
        let u = l.transpose();
        let y = backward_subst(Csr::of(&u), &[3.0, 7.0, 5.0]).unwrap();
        assert_eq!(y, vec![1.0, 1.0, 1.0]);
        assert!(relative_residual(Csr::of(&l), &x, &[2.0, 5.0, 8.0]) == 0.0);
        assert!(forward_subst(Csr::of(&u), &[1.0; 3]).is_err());
    }

    #[test]
    fn nan_answer_is_a_failed_operation() {
        let l = small_lower();
        let b = [2.0, 5.0, 8.0];
        let reference = forward_subst(Csr::of(&l), &b).unwrap();
        let mut tally = Tally::default();
        let nan = vec![1.0, f64::NAN, 1.0];
        tally.record(|| "agree".into(), agree(&nan, &reference, SOLVE_TOL));
        tally.record(|| "residual".into(), residual_within(Csr::of(&l), &nan, &b, PCG_TOL));
        tally.record(|| "bits".into(), bit_identical(&nan, &reference));
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }

    #[test]
    fn one_perturbed_entry_is_a_failed_operation() {
        let l = small_lower();
        let b = [2.0, 5.0, 8.0];
        let reference = forward_subst(Csr::of(&l), &b).unwrap();
        let mut perturbed = reference.clone();
        perturbed[2] += 1e-9;
        let mut tally = Tally::default();
        tally.record(|| "exact".into(), agree(&reference, &reference, SOLVE_TOL));
        tally.record(|| "agree".into(), agree(&perturbed, &reference, SOLVE_TOL));
        tally.record(|| "bits".into(), bit_identical(&perturbed, &reference));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn precedence_violations_are_failed_operations() {
        let l = small_lower();
        let csr = Csr::of(&l);
        let mut tally = Tally::default();
        // Valid: rows 0,1 on core 0 in step 0, row 2 on core 1 in step 1.
        tally.record(|| "valid".into(), precedence(csr, 2, &[0, 0, 1], &[0, 0, 1]));
        // Row 1 depends on row 0 but runs on the other core in the same step.
        tally.record(|| "cross-core".into(), precedence(csr, 2, &[0, 1, 1], &[0, 0, 1]));
        // Row 2 depends on row 1 but runs a superstep earlier.
        tally.record(|| "backwards".into(), precedence(csr, 2, &[0, 0, 0], &[0, 1, 0]));
        // Core out of range.
        tally.record(|| "core".into(), precedence(csr, 2, &[0, 0, 2], &[0, 0, 1]));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }
}
