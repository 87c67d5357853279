//! The simulated data-parallel machine: elementwise operations, context
//! masks, and reductions. Grid, scan, router, and sort primitives live in
//! sibling modules (`news`, `scan`, `router`, `sort`) as further `impl`
//! blocks on [`Machine`].

use crate::cost::{CostLedger, CostModel, Prim};
use crate::field::{Elem, Field};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A simulated SIMD/data-parallel machine with a cost ledger.
///
/// Every operation executes the semantics eagerly on the host and charges
/// the configured [`CostModel`] for what the real machine would have spent.
/// Operations take `&self`; the ledger sits behind a mutex so drivers can
/// share the machine across helper structs.
#[derive(Debug)]
pub struct Machine {
    model: CostModel,
    ledger: Mutex<CostLedger>,
}

impl Machine {
    /// Creates a machine with the given cost model and a zeroed ledger.
    pub fn new(model: CostModel) -> Self {
        Self {
            model,
            ledger: Mutex::new(CostLedger::new()),
        }
    }

    /// The machine's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The ledger, recovered if a panicking holder poisoned it: every
    /// charge leaves it consistent.
    fn ledger(&self) -> MutexGuard<'_, CostLedger> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Simulated seconds elapsed so far.
    pub fn seconds(&self) -> f64 {
        self.ledger().seconds()
    }

    /// Snapshot of the ledger (time + op counts).
    pub fn ledger_snapshot(&self) -> CostLedger {
        self.ledger().clone()
    }

    /// Zeroes the ledger (e.g. between the split and merge stages).
    pub fn reset_ledger(&self) {
        self.ledger().reset();
    }

    /// Charges one `prim` over `n` elements.
    pub(crate) fn charge(&self, prim: Prim, n: usize) {
        let ns = self.model.charge_ns(prim, n);
        self.ledger().charge(prim, ns);
    }

    // ---- elementwise operations -------------------------------------

    /// `out[i] = f(a[i])`.
    pub fn map<T: Elem, U: Elem>(&self, a: &Field<T>, f: impl Fn(T) -> U) -> Field<U> {
        self.charge(Prim::Elementwise, a.len());
        Field::from_vec(a.shape(), a.as_slice().iter().map(|&x| f(x)).collect())
    }

    /// `out[i] = f(a[i], b[i])`.
    pub fn zip<T: Elem, U: Elem, V: Elem>(
        &self,
        a: &Field<T>,
        b: &Field<U>,
        f: impl Fn(T, U) -> V,
    ) -> Field<V> {
        assert_eq!(a.shape(), b.shape(), "zip shape mismatch");
        self.charge(Prim::Elementwise, a.len());
        let data = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| f(x, y))
            .collect();
        Field::from_vec(a.shape(), data)
    }

    /// `out[i] = f(a[i], b[i], c[i])`.
    pub fn zip3<T: Elem, U: Elem, V: Elem, W: Elem>(
        &self,
        a: &Field<T>,
        b: &Field<U>,
        c: &Field<V>,
        f: impl Fn(T, U, V) -> W,
    ) -> Field<W> {
        assert_eq!(a.shape(), b.shape(), "zip3 shape mismatch");
        assert_eq!(a.shape(), c.shape(), "zip3 shape mismatch");
        self.charge(Prim::Elementwise, a.len());
        let data = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .zip(c.as_slice())
            .map(|((&x, &y), &z)| f(x, y, z))
            .collect();
        Field::from_vec(a.shape(), data)
    }

    /// Context-masked update: `dst[i] = f(dst[i], src[i])` where
    /// `mask[i]`. This is the CM's "where" construct.
    pub fn update_where<T: Elem, U: Elem>(
        &self,
        dst: &mut Field<T>,
        mask: &Field<bool>,
        src: &Field<U>,
        f: impl Fn(T, U) -> T,
    ) {
        assert_eq!(dst.shape(), mask.shape(), "update_where shape mismatch");
        assert_eq!(dst.shape(), src.shape(), "update_where shape mismatch");
        self.charge(Prim::Elementwise, dst.len());
        let d = dst.as_mut_slice();
        for (i, cell) in d.iter_mut().enumerate() {
            if mask.at(i) {
                *cell = f(*cell, src.at(i));
            }
        }
    }

    /// `out[i] = if mask[i] { a[i] } else { b[i] }` (CM `merge`).
    pub fn select<T: Elem>(&self, mask: &Field<bool>, a: &Field<T>, b: &Field<T>) -> Field<T> {
        self.zip3(mask, a, b, |m, x, y| if m { x } else { y })
    }

    /// The self-address field `0, 1, 2, …` (CM `self-address!!`).
    pub fn iota(&self, shape: crate::field::Shape) -> Field<u32> {
        self.charge(Prim::Elementwise, shape.len());
        Field::from_vec(shape, (0..shape.len() as u32).collect())
    }

    // ---- reductions --------------------------------------------------

    /// Global fold of the field to a scalar.
    ///
    /// `f` must be associative and commutative (the hardware tree imposes
    /// no order).
    pub fn reduce<T: Elem>(&self, a: &Field<T>, init: T, f: impl Fn(T, T) -> T) -> T {
        self.charge(Prim::Reduce, a.len());
        a.as_slice().iter().fold(init, |acc, &x| f(acc, x))
    }

    /// Global OR of a boolean field.
    pub fn any(&self, a: &Field<bool>) -> bool {
        self.reduce(a, false, |x, y| x | y)
    }

    /// Number of `true` elements (a sum-reduce on the hardware).
    pub fn count_true(&self, a: &Field<bool>) -> usize {
        self.charge(Prim::Reduce, a.len());
        a.as_slice().iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Shape;

    fn machine() -> Machine {
        Machine::new(CostModel::cm2_8k())
    }

    #[test]
    fn map_zip_select() {
        let m = machine();
        let a = Field::from_slice(&[1u32, 2, 3]);
        let b = Field::from_slice(&[10u32, 20, 30]);
        assert_eq!(m.map(&a, |x| x * 2).as_slice(), &[2, 4, 6]);
        assert_eq!(m.zip(&a, &b, |x, y| x + y).as_slice(), &[11, 22, 33]);
        let mask = Field::from_slice(&[true, false, true]);
        assert_eq!(m.select(&mask, &a, &b).as_slice(), &[1, 20, 3]);
    }

    #[test]
    fn update_where_masks() {
        let m = machine();
        let mut dst = Field::from_slice(&[0u32, 0, 0, 0]);
        let mask = Field::from_slice(&[true, false, true, false]);
        let src = Field::from_slice(&[5u32, 6, 7, 8]);
        m.update_where(&mut dst, &mask, &src, |_, s| s);
        assert_eq!(dst.as_slice(), &[5, 0, 7, 0]);
    }

    #[test]
    fn reductions() {
        let m = machine();
        let a = Field::from_slice(&[3u32, 1, 4, 1, 5]);
        assert_eq!(m.reduce(&a, 0, |x, y| x + y), 14);
        assert_eq!(m.reduce(&a, u32::MAX, |x, y| x.min(y)), 1);
        let mask = Field::from_slice(&[true, false, true]);
        assert!(m.any(&mask));
        assert!(!m.any(&Field::from_slice(&[false, false])));
    }

    #[test]
    fn iota_addresses() {
        let m = machine();
        let f = m.iota(Shape::two_d(3, 2));
        assert_eq!(f.as_slice(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn ledger_advances() {
        let m = machine();
        let before = m.seconds();
        let a = Field::constant(Shape::one_d(100_000), 1u32);
        let _ = m.map(&a, |x| x + 1);
        assert!(m.seconds() > before);
        let snap = m.ledger_snapshot();
        assert_eq!(snap.count(Prim::Elementwise), 1);
        m.reset_ledger();
        assert_eq!(m.seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn zip_shape_mismatch_panics() {
        let m = machine();
        let a = Field::from_slice(&[1u32]);
        let b = Field::from_slice(&[1u32, 2]);
        let _ = m.zip(&a, &b, |x, y| x + y);
    }
}
